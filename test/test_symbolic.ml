(* White-box tests for the symbolic containment compiler (Props 1-2):
   compiled condition shapes, operand resolution, and agreement between
   the compiled and direct procedures on random template instances. *)
open Ldap
open Ldap_containment

let check_bool = Alcotest.(check bool)
let t = Template.of_string_exn

let compile left right =
  match Symbolic.compile ~left:(t left) ~right:(t right) with
  | Some c -> c
  | None -> Alcotest.failf "compilation of %s in %s failed" left right

let test_always () =
  (* Anything is contained in the presence filter on its attribute. *)
  (match compile "(age=_)" "(age=*)" with
  | Symbolic.Always -> ()
  | c -> Alcotest.failf "expected Always, got %s" (Symbolic.to_string c));
  match compile "(sn=_)" "(sn=_)" with
  | Symbolic.Cnf _ -> ()
  | c -> Alcotest.failf "same-template equality should be conditional, got %s"
           (Symbolic.to_string c)

let test_never () =
  (* Disjoint attributes can never contain each other. *)
  (match compile "(sn=_)" "(mail=_)" with
  | Symbolic.Never -> ()
  | c -> Alcotest.failf "expected Never, got %s" (Symbolic.to_string c));
  (* A conjunction cannot be answered by a query requiring extra attrs. *)
  match compile "(sn=_)" "(&(sn=_)(ou=_))" with
  | Symbolic.Never -> ()
  | c -> Alcotest.failf "expected Never, got %s" (Symbolic.to_string c)

let eval c ~left ~right = Symbolic.eval c ~left ~right

let test_range_conditions () =
  let c = compile "(age>=_)" "(age>=_)" in
  check_bool "30 in >=20" true (eval c ~left:[| "30" |] ~right:[| "20" |]);
  check_bool "10 not in >=20" false (eval c ~left:[| "10" |] ~right:[| "20" |]);
  check_bool "boundary" true (eval c ~left:[| "20" |] ~right:[| "20" |]);
  let c = compile "(age<=_)" "(age<=_)" in
  check_bool "10 in <=20" true (eval c ~left:[| "10" |] ~right:[| "20" |]);
  check_bool "30 not in <=20" false (eval c ~left:[| "30" |] ~right:[| "20" |])

let test_integer_discreteness () =
  (* (age>=4) is contained in (!(age<=3)) because age is integral:
     x > 3 iff x >= 4. *)
  let left = t "(age>=_)" in
  let right = t "(!(age<=_))" in
  match Symbolic.compile ~left ~right with
  | Some c ->
      check_bool "integer gap" true (eval c ~left:[| "4" |] ~right:[| "3" |]);
      check_bool "same bound fails" false (eval c ~left:[| "3" |] ~right:[| "3" |])
  | None -> Alcotest.fail "expected compilation"

let test_prefix_operand () =
  (* Succ operand: a prefix assertion is the range [p, succ p). *)
  let c = compile "(serialnumber=_*)" "(serialnumber=_*)" in
  check_bool "narrower prefix" true (eval c ~left:[| "2406" |] ~right:[| "24" |]);
  check_bool "wider prefix" false (eval c ~left:[| "24" |] ~right:[| "2406" |]);
  check_bool "same prefix" true (eval c ~left:[| "24" |] ~right:[| "24" |]);
  check_bool "disjoint" false (eval c ~left:[| "25" |] ~right:[| "24" |])

let test_prefix_vs_range () =
  (* A prefix assertion within a lower bound: needs X below the prefix. *)
  let c = compile "(serialnumber=_*)" "(serialnumber>=_)" in
  check_bool "below" true (eval c ~left:[| "24" |] ~right:[| "2" |]);
  check_bool "above" false (eval c ~left:[| "24" |] ~right:[| "25" |])

let test_missing_values_are_safe () =
  (* Wrong arity must never crash nor claim containment. *)
  let c = compile "(sn=_)" "(sn=_)" in
  check_bool "missing right" false (eval c ~left:[| "doe" |] ~right:[||]);
  check_bool "missing left" false (eval c ~left:[||] ~right:[| "doe" |])

let test_to_string_shape () =
  let c = compile "(age=_)" "(age>=_)" in
  let s = Symbolic.to_string c in
  check_bool "mentions attr" true
    (let contains frag =
       let rec find i =
         i + String.length frag <= String.length s
         && (String.sub s i (String.length frag) = frag || find (i + 1))
       in
       find 0
     in
     contains "age");
  check_bool "never prints FALSE" true (Symbolic.to_string Symbolic.Never = "FALSE");
  check_bool "always prints TRUE" true (Symbolic.to_string Symbolic.Always = "TRUE")

(* Property: the compiled condition agrees with the direct decision
   procedure on concrete instances. *)
let templates =
  [
    ("(serialnumber=_)", 1);
    ("(serialnumber=_*)", 1);
    ("(age=_)", 1);
    ("(age>=_)", 1);
    ("(age<=_)", 1);
    ("(&(departmentnumber=_)(divisionnumber=_))", 2);
    ("(&(divisionnumber=_)(departmentnumber=*))", 1);
    ("(sn=*)", 0);
  ]

let value_gen = QCheck.Gen.(oneofl [ "1"; "2"; "24"; "2406"; "25"; "9" ])

let instance_gen =
  QCheck.Gen.(
    let* ti = int_bound (List.length templates - 1) in
    let tmpl, arity = List.nth templates ti in
    let* values = array_repeat arity value_gen in
    return (tmpl, values))

(* The filter a template string denotes with its holes filled left to
   right. *)
let instance tmpl values =
  let next = ref 0 in
  let b = Buffer.create 64 in
  String.iter
    (fun c ->
      if c = '_' then begin
        Buffer.add_string b values.(!next);
        incr next
      end
      else Buffer.add_char b c)
    tmpl;
  Filter.normalize (Filter.of_string_exn (Buffer.contents b))

let prop_compiled_agrees_with_direct =
  QCheck.Test.make ~name:"symbolic: compiled condition = direct check" ~count:800
    (QCheck.make
       ~print:(fun ((lt, lv), (rt, rv)) ->
         Printf.sprintf "%s%s in %s%s" lt
           (String.concat "," (Array.to_list lv))
           rt
           (String.concat "," (Array.to_list rv)))
       QCheck.Gen.(pair instance_gen instance_gen))
    (fun ((lt, lv), (rt, rv)) ->
      let left = t lt and right = t rt in
      match Symbolic.compile ~left ~right with
      | None -> true
      | Some cond -> (
          let lf = instance lt lv and rf = instance rt rv in
          match (Template.match_filter left lf, Template.match_filter right rf) with
          | Some lv, Some rv ->
              Symbolic.eval cond ~left:lv ~right:rv = Symbolic.contained lf rf
          | _ -> QCheck.Test.fail_reportf "not an instance of its template"))

let suite =
  [
    Alcotest.test_case "always" `Quick test_always;
    Alcotest.test_case "never" `Quick test_never;
    Alcotest.test_case "range conditions" `Quick test_range_conditions;
    Alcotest.test_case "integer discreteness" `Quick test_integer_discreteness;
    Alcotest.test_case "prefix operand" `Quick test_prefix_operand;
    Alcotest.test_case "prefix vs range" `Quick test_prefix_vs_range;
    Alcotest.test_case "missing values safe" `Quick test_missing_values_are_safe;
    Alcotest.test_case "to_string shape" `Quick test_to_string_shape;
    QCheck_alcotest.to_alcotest prop_compiled_agrees_with_direct;
  ]
