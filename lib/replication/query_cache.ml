open Ldap
module C = Ldap_containment

type t = {
  capacity : int;
  index : Entry.t list C.Containment_index.t;
  mutable window : Query.t list;  (* newest first *)
}

let create ~capacity =
  { capacity; index = C.Containment_index.create (); window = [] }

let length t = List.length t.window

let add t q result =
  if t.capacity > 0 then begin
    if C.Containment_index.mem t.index q then
      t.window <- List.filter (fun x -> not (Query.equal x q)) t.window;
    C.Containment_index.add t.index q result;
    t.window <- q :: t.window;
    if List.length t.window > t.capacity then begin
      match List.rev t.window with
      | oldest :: _ ->
          C.Containment_index.remove t.index oldest;
          t.window <- List.filter (fun x -> not (Query.equal x oldest)) t.window
      | [] -> ()
    end
  end

let answer t q =
  if t.capacity = 0 then None
  else
    let evaluable (stored : Query.t) _ =
      Replica.filter_attrs_available ~available:stored.Query.attrs q
    in
    match C.Containment_index.find_container_where t.index q ~pred:evaluable with
    | None -> None
    | Some (_, entries) -> Some (Replica.eval_over_entries Schema.default q (List.to_seq entries))

let comparisons t = C.Containment_index.comparisons t.index
