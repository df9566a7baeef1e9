open Ldap

(* Interpreted membership: the reference behind [classify]. *)
let member (q : Query.t) entry =
  Query.in_scope q (Entry.dn entry) && Filter.matches q.Query.filter entry

(* A membership test with the filter compiled once.  Sessions live for
   many updates, so the master caches one of these per session and
   classifies every affected update against bytecode instead of
   re-walking the filter AST. *)
type matcher = { mq : Query.t; prog : Ldap_compile.Prog.t }

let matcher (q : Query.t) = { mq = q; prog = Filter.compile q.Query.filter }

let matches m entry =
  Query.in_scope m.mq (Entry.dn entry)
  && Ldap_compile.Prog.matches m.prog (Entry.compiled entry)

let modifytimestamp = Ldap_compile.Attr_id.intern "modifytimestamp"

let changed_since since entry =
  match Entry.values entry modifytimestamp with
  | [| ts |] -> (
      match int_of_string_opt ts with
      | Some c -> Csn.( < ) since (Csn.of_int c)
      | None -> true)
  | _ -> true

let current backend q =
  match Backend.search backend q with
  | Ok { Backend.entries; _ } -> entries
  | Error _ -> []

let current_dns backend q =
  (* Evaluate without attribute selection cost: DNs suffice. *)
  let slim = { q with Query.attrs = Query.Select [ "objectclass" ] } in
  List.fold_left
    (fun acc e -> Dn.Set.add (Entry.dn e) acc)
    Dn.Set.empty (current backend slim)

type transition =
  | Stays_out
  | Moves_in of Entry.t
  | Moves_out of Dn.t
  | Changes_within of Entry.t
  | Renames_within of { old_dn : Dn.t; entry : Entry.t }

let classify_with is_member ~before ~after =
  let was_in = match before with Some e -> is_member e | None -> false in
  let is_in = match after with Some e -> is_member e | None -> false in
  match (was_in, is_in, before, after) with
  | false, false, _, _ -> Stays_out
  | false, true, _, Some e -> Moves_in e
  | true, false, Some e, _ -> Moves_out (Entry.dn e)
  | true, true, Some b, Some a ->
      if Dn.equal (Entry.dn b) (Entry.dn a) then Changes_within a
      else Renames_within { old_dn = Entry.dn b; entry = a }
  | false, true, _, None | true, false, None, _ | true, true, _, None
  | true, true, None, _ ->
      (* Membership implies the corresponding image exists. *)
      assert false

let classify q ~before ~after =
  classify_with (member q) ~before ~after

let classify_m m ~before ~after = classify_with (matches m) ~before ~after

let actions_of_transition = function
  | Stays_out -> []
  | Moves_in e -> [ Action.Add e ]
  | Moves_out dn -> [ Action.Delete dn ]
  | Changes_within e -> [ Action.Modify e ]
  | Renames_within { old_dn; entry } -> [ Action.Delete old_dn; Action.Add entry ]
