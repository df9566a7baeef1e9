(** Master update stream for the update-traffic experiments
    (section 7.3).

    Applies a deterministic mix of update operations to the enterprise
    master: telephone/mail modifications, employee hires (add),
    departures (delete) and renames, plus rare department-entry
    updates (the paper notes department entries have a very low update
    rate).  The stream tracks the live employee population so every
    generated operation is valid. *)


type config = {
  seed : int;
  modify_phone_w : float;
  modify_mail_w : float;
  add_employee_w : float;
  delete_employee_w : float;
  rename_employee_w : float;
  modify_dept_entry_w : float;
}

val default_config : config
(** Phone 0.45, mail 0.20, add 0.14, delete 0.14, rename 0.05,
    department 0.02; seed 11. *)

type t

val create : Enterprise.t -> config -> t
(** A stream over the enterprise's master, starting from its current
    employees. *)

val steps : t -> int -> unit
(** Applies [n] update operations to the master backend. *)
