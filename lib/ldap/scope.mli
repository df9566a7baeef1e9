(** Search scope of an LDAP search request (RFC 2251, section 4.5.1).

    The paper (section 4) relies on the total order
    [Base < One < Sub] when checking query containment, so the
    integer encoding used there (BASE=0, SINGLE LEVEL=1, SUBTREE=2) is
    exposed as {!to_int}. *)

type t =
  | Base  (** Only the base object itself. *)
  | One  (** Immediate children of the base object (single level). *)
  | Sub  (** The base object and its whole subtree. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Orders [Base < One < Sub]. *)

val to_int : t -> int
(** [to_int s] is the paper's integer encoding: 0, 1 or 2. *)

val of_int : int -> t option
(** Inverse of {!to_int}; [None] outside 0..2. *)

val to_string : t -> string
(** ["base"], ["one"] or ["sub"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}, case-insensitive; also accepts
    ["onelevel"], ["single"] and ["subtree"]. *)

val covers : outer:t -> inner:t -> bool
(** [covers ~outer ~inner] is [true] when a search with scope [outer]
    visits at least the entries visited by scope [inner] {e from the
    same base}.

    Note this is {e not} the paper's integer shortcut
    [to_int outer >= to_int inner]: a single-level scope does not
    visit the base entry itself (RFC 2251, section 4.5.1), so [One]
    does not cover [Base] even though 1 >= 0.  Algorithm QC as printed
    in the paper inherits that off-by-one; the property tests caught
    it against an enumeration oracle. *)
