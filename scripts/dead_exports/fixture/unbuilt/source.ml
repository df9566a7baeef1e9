(* A source with no build stanza: the directory holds no .cmt file. *)
let x = 1
