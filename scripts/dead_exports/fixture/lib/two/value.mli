(** [Deadfix_one.Base] under a second name. *)

include module type of struct
  include Deadfix_one.Base
end
