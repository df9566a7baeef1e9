(* A process-global intern table mapping lowercased attribute names to
   dense small integers.  Ids are allocated on first sight and never
   reused, so an id obtained anywhere in the process stays valid for
   its lifetime; the table is tiny (one slot per distinct attribute
   name ever seen) and is deliberately never cleared. *)

type t = int

let table : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref (Array.make 64 "")
let used = ref 0

let intern name =
  let key = Value.lowercase name in
  match Hashtbl.find table key with
  | id -> id
  | exception Not_found ->
      let id = !used in
      if id = Array.length !names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit !names 0 bigger 0 id;
        names := bigger
      end;
      !names.(id) <- key;
      incr used;
      Hashtbl.add table key id;
      id

let interned name = Hashtbl.find_opt table (Value.lowercase name)

let name id =
  if id < 0 || id >= !used then invalid_arg "Attr_id.name: unknown id";
  !names.(id)

