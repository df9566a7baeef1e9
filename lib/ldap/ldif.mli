(** LDIF (LDAP Data Interchange Format, RFC 2849) output.

    Prints entries for the CLI's search command: [dn:]/attribute
    lines, base64 values where RFC 2849 requires them (leading
    space/colon/angle, non-printable or non-ASCII bytes, trailing
    space) and line folding at 76 columns. *)

val entries_to_string : Entry.t list -> string
(** Records separated by blank lines, with a leading [version: 1]. *)
