(** Reusable backwards-writing byte buffer for zero-copy DER encoding.

    DER values are [tag length body]: the length is written {e before}
    the body, but is only known {e after} the body is produced.  A
    forward writer must therefore either pre-compute sizes or build
    every nested value in its own intermediate string (the cost the
    old [String.concat]-based codec paid at every nesting level).  A
    backwards writer dissolves the problem: emit the body first
    (children in reverse order), then prepend its length and tag.
    Each byte is written exactly once, and one buffer is reused across
    encodes — the only per-message allocation is the final
    {!contents}, and even that is skipped by callers that blit or
    hash via {!view}. *)

type t
(** A growable buffer whose contents occupy the tail of its backing
    store; all writes prepend. *)

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty buffer.  [capacity] (default 256) sizes
    the initial backing store; the buffer grows geometrically on
    demand. *)

val clear : t -> unit
(** Reset to empty, keeping the backing store for reuse. *)

val length : t -> int
(** Number of bytes currently in the buffer. *)

val prepend_char : t -> char -> unit
(** Write one byte before the current contents. *)

val prepend_string : t -> string -> unit
(** Write a string before the current contents. *)

val mark : t -> int
(** [mark t] snapshots the current {!length}; pair with {!since} to
    measure the size of a value emitted after the mark. *)

val since : t -> int -> int
(** [since t m] is the number of bytes prepended since {!mark}
    returned [m] — i.e. the body length a DER header must declare. *)

val contents : t -> string
(** Copy out the buffered bytes as a string (one allocation). *)

val view : t -> Bytes.t * int * int
(** [(bytes, off, len)] exposing the live region without copying —
    for checksumming or blitting.  Invalidated by the next write. *)
