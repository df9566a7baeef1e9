open Ldap

type 'a stored = { query : Query.t; values : string array; payload : 'a }

type 'a bucket = {
  template : Template.t;
  syntaxes : Value.syntax array;
      (* hole index -> the syntax of the attribute filling it, resolved
         once at bucket creation instead of per column probe *)
  mutable entries : 'a stored list;
  columns : (int, (string, 'a stored list ref) Hashtbl.t) Hashtbl.t;
      (* hole index -> canonical hole value -> stored queries; built
         lazily per column the first time a pruning plan needs it and
         kept in sync by [add]/[remove]. *)
}

(* How to narrow a bucket to the stored queries that can satisfy one
   clause of the compiled containment condition, given the incoming
   (left) assertion values.  A clause is a disjunction, so candidates
   are the union over its atoms:
   - [Guard]: an atom with no R holes — same truth value for every
     stored query; if it evaluates true the clause holds bucket-wide
     and we must scan;
   - [Key_eq]: the atom holds only for stored queries whose hole [col]
     equals the value of the (R-free) [sources] — a column lookup;
   - [Key_prefix]: the atom holds only when hole [col] is a prefix of
     the resolved [source] — finitely many column lookups. *)
type plan_atom =
  | Guard of Symbolic.Compiled.atom_fn  (* staged once when planned *)
  | Key_eq of { col : int; syntax : Value.syntax; sources : Symbolic.operand list }
  | Key_prefix of { col : int; syntax : Value.syntax; source : Symbolic.operand }

type plan = Scan | Clause of plan_atom list

(* The symbolic CNF is kept for planning; the staged form answers the
   per-candidate evaluations. *)
type cond = { sym : Symbolic.t; staged : Symbolic.Compiled.cond }

type 'a t = {
  buckets : (string, 'a bucket) Hashtbl.t;  (* shape key -> bucket *)
  exact : 'a stored Query.Tbl.t;
      (* every stored query under its exact form: [find] and [mem]
         answer here without decomposing into a template *)
  conditions : (string * string, cond option) Hashtbl.t;
      (* (incoming shape, stored shape) -> compiled condition *)
  plans : (string * string, plan) Hashtbl.t;
      (* (incoming shape, stored shape) -> candidate-pruning plan *)
  mutable count : int;
  mutable comparisons : int;
}

let create () =
  {
    buckets = Hashtbl.create 64;
    exact = Query.Tbl.create 64;
    conditions = Hashtbl.create 256;
    plans = Hashtbl.create 256;
    count = 0;
    comparisons = 0;
  }

let decompose (q : Query.t) =
  let template = Template.of_filter q.Query.filter in
  match Template.match_filter template q.Query.filter with
  | Some values -> (template, values)
  | None ->
      (* A filter always matches its own full generalization. *)
      assert false

let column_key (_ : 'a t) bucket col v =
  Value.canonical bucket.syntaxes.(col) v

let column_insert t bucket col column s =
  let key = column_key t bucket col s.values.(col) in
  match Hashtbl.find_opt column key with
  | Some l -> l := s :: !l
  | None -> Hashtbl.add column key (ref [ s ])

let column t bucket col =
  match Hashtbl.find_opt bucket.columns col with
  | Some c -> c
  | None ->
      let c = Hashtbl.create (max 16 (List.length bucket.entries)) in
      List.iter (column_insert t bucket col c) bucket.entries;
      Hashtbl.replace bucket.columns col c;
      c

let add t q payload =
  let template, values = decompose q in
  let key = Template.shape_key template in
  let bucket =
    match Hashtbl.find_opt t.buckets key with
    | Some b -> b
    | None ->
        let b =
          { template;
            syntaxes = Array.map Schema.syntax_of (Template.hole_attrs template);
            entries = [];
            columns = Hashtbl.create 4 }
        in
        Hashtbl.replace t.buckets key b;
        b
  in
  let fresh = { query = q; values; payload } in
  (match Query.Tbl.find_opt t.exact q with
  | Some old ->
      (* Equal queries have equal hole values, so the replacement lives
         under the same column keys as its predecessor. *)
      let swap = List.map (fun s -> if s == old then fresh else s) in
      bucket.entries <- swap bucket.entries;
      Hashtbl.iter
        (fun col column ->
          match Hashtbl.find_opt column (column_key t bucket col values.(col)) with
          | Some l -> l := swap !l
          | None -> ())
        bucket.columns
  | None ->
      bucket.entries <- fresh :: bucket.entries;
      Hashtbl.iter (fun col column -> column_insert t bucket col column fresh) bucket.columns;
      t.count <- t.count + 1);
  Query.Tbl.replace t.exact q fresh

let remove t q =
  match Query.Tbl.find_opt t.exact q with
  | None -> ()
  | Some s ->
      Query.Tbl.remove t.exact q;
      let values = s.values in
      let key = Template.shape_key (Template.of_filter s.query.Query.filter) in
      let bucket = Hashtbl.find t.buckets key in
      bucket.entries <- List.filter (fun s' -> s' != s) bucket.entries;
      t.count <- t.count - 1;
      if bucket.entries = [] then Hashtbl.remove t.buckets key
      else
        Hashtbl.iter
          (fun col column ->
            let ck = column_key t bucket col values.(col) in
            match Hashtbl.find_opt column ck with
            | None -> ()
            | Some l -> (
                match List.filter (fun s' -> s' != s) !l with
                | [] -> Hashtbl.remove column ck
                | rest -> l := rest))
          bucket.columns

let find t q =
  match Query.Tbl.find_opt t.exact q with Some s -> Some s.payload | None -> None

let mem t q = Query.Tbl.mem t.exact q
let length t = t.count

let condition t ~incoming_key ~incoming ~bucket_key ~bucket_template =
  let key = (incoming_key, bucket_key) in
  match Hashtbl.find_opt t.conditions key with
  | Some c -> c
  | None ->
      let c =
        Symbolic.compile ~left:incoming ~right:bucket_template
        |> Option.map (fun sym ->
               { sym; staged = Symbolic.Compiled.compile sym })
      in
      Hashtbl.replace t.conditions key c;
      c

(* --- candidate pruning ------------------------------------------------ *)

let rec r_free = function
  | Symbolic.L _ | Symbolic.C _ -> true
  | Symbolic.R _ -> false
  | Symbolic.Succ o -> r_free o

(* Resolve an R-free operand against the incoming values; [None] plays
   the role of [Symbolic.Unknown_value] (the atom is false). *)
let rec resolve_left values = function
  | Symbolic.L i -> if i < Array.length values then Some values.(i) else None
  | Symbolic.C s -> Some s
  | Symbolic.R _ -> None
  | Symbolic.Succ o -> (
      match resolve_left values o with
      | None -> None
      | Some v -> (
          match Value.successor_of_prefix v with
          | s -> Some s
          | exception Invalid_argument _ -> None))

(* Classify one atom of a clause; [None] = the atom cannot be keyed or
   guarded, making the whole clause unusable for pruning. *)
let plan_atom ({ Symbolic.attr; atom } as ca) =
  let syntax = Schema.syntax_of attr in
  let keyable = function
    | Symbolic.R col, o when r_free o -> Some (Key_eq { col; syntax; sources = [ o ] })
    | o, Symbolic.R col when r_free o -> Some (Key_eq { col; syntax; sources = [ o ] })
    | _, _ -> None
  in
  let all_r_free =
    match atom with
    | Symbolic.Empty_range { low; high; _ } -> r_free low && r_free high
    | Symbolic.Equal (a, b) | Symbolic.Has_prefix (a, b) -> r_free a && r_free b
    | Symbolic.Point_excluded { low; high; excl } ->
        r_free low && r_free high && r_free excl
  in
  if all_r_free then Some (Guard (Symbolic.Compiled.atom ca))
  else
    match atom with
    | Symbolic.Equal (a, b) -> keyable (a, b)
    | Symbolic.Point_excluded { low; high; excl } -> (
        (* True iff low = high = excl; with one bare R hole among the
           three, key it on the (agreeing) others. *)
        match (low, high, excl) with
        | Symbolic.R col, a, b when r_free a && r_free b ->
            Some (Key_eq { col; syntax; sources = [ a; b ] })
        | a, Symbolic.R col, b when r_free a && r_free b ->
            Some (Key_eq { col; syntax; sources = [ a; b ] })
        | a, b, Symbolic.R col when r_free a && r_free b ->
            Some (Key_eq { col; syntax; sources = [ a; b ] })
        | _, _, _ -> None)
    | Symbolic.Has_prefix (Symbolic.R col, v)
      when r_free v && syntax <> Value.Integer ->
        (* [has_prefix_norm] compares normalized forms and the column
           is keyed by canonical forms; those agree except for Integer
           syntax, which therefore stays unkeyed. *)
        Some (Key_prefix { col; syntax; source = v })
    | Symbolic.Empty_range _ | Symbolic.Has_prefix _ -> None

let plan_of_clause clause =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | a :: rest -> (
        match plan_atom a with None -> None | Some p -> go (p :: acc) rest)
  in
  go [] clause

(* Cost order: prefer clauses whose candidates come from fewer, more
   selective probes. *)
let plan_cost atoms =
  let prefixes, eqs, guards =
    List.fold_left
      (fun (p, e, g) -> function
        | Key_prefix _ -> (p + 1, e, g)
        | Key_eq _ -> (p, e + 1, g)
        | Guard _ -> (p, e, g + 1))
      (0, 0, 0) atoms
  in
  (prefixes, eqs, guards)

let plan t ~incoming_key ~bucket_key cond =
  let key = (incoming_key, bucket_key) in
  match Hashtbl.find_opt t.plans key with
  | Some p -> p
  | None ->
      let p =
        match cond with
        | Some { sym = Symbolic.Cnf clauses; _ } ->
            List.filter_map plan_of_clause clauses
            |> List.fold_left
                 (fun best atoms ->
                   match best with
                   | Some b when plan_cost b <= plan_cost atoms -> best
                   | Some _ | None -> Some atoms)
                 None
            |> Option.fold ~none:Scan ~some:(fun atoms -> Clause atoms)
        | Some { sym = Symbolic.Always | Symbolic.Never; _ } | None -> Scan
      in
      Hashtbl.replace t.plans key p;
      p

(* Stored queries of [bucket] that can satisfy the planned clause for
   the given incoming values; [None] = scan the whole bucket. *)
let candidates t bucket atoms ~values =
  let probe_eq acc col probe_key =
    match Hashtbl.find_opt (column t bucket col) probe_key with
    | Some l -> !l :: acc
    | None -> acc
  in
  (* [go] accumulates one stored-list per successful probe. *)
  let rec go acc = function
    | [] -> Some acc
    | Guard g :: rest ->
        if (try g values [||] with Symbolic.Compiled.Unknown -> false) then
          None  (* clause holds bucket-wide *)
        else go acc rest
    | Key_eq { col; syntax; sources } :: rest -> (
        match List.map (resolve_left values) sources with
        | Some v :: more
          when List.for_all
                 (function Some w -> Value.equal syntax v w | None -> false)
                 more ->
            go (probe_eq acc col (Value.canonical syntax v)) rest
        | _ -> go acc rest  (* unresolvable or disagreeing: atom false *))
    | Key_prefix { col; syntax; source } :: rest -> (
        match resolve_left values source with
        | None -> go acc rest
        | Some v ->
            let n = Value.normalize syntax v in
            let acc = ref acc in
            for len = 0 to String.length n do
              acc := probe_eq !acc col (String.sub n 0 len)
            done;
            go !acc rest)
  in
  match go [] atoms with
  | None -> None
  | Some [] -> Some []
  | Some [ l ] -> Some l
  | Some lists ->
      (* Union of several probes: dedupe physically. *)
      let rec dedupe seen = function
        | [] -> List.rev seen
        | s :: rest ->
            if List.memq s seen then dedupe seen rest else dedupe (s :: seen) rest
      in
      Some (dedupe [] (List.concat lists))

let find_container_where t (q : Query.t) ~pred =
  let template, values = decompose q in
  let incoming_key = Template.shape_key template in
  let check_bucket bucket_key (bucket : 'a bucket) acc =
    match acc with
    | Some _ -> acc
    | None -> (
        match
          condition t ~incoming_key ~incoming:template ~bucket_key
            ~bucket_template:bucket.template
        with
        | Some { sym = Symbolic.Never; _ } -> None
        | cond ->
            let entries =
              match plan t ~incoming_key ~bucket_key cond with
              | Scan -> bucket.entries
              | Clause atoms -> (
                  match candidates t bucket atoms ~values with
                  | None -> bucket.entries
                  | Some cs -> cs)
            in
            List.find_map
              (fun s ->
                t.comparisons <- t.comparisons + 1;
                if
                  (not (pred s.query s.payload))
                  || not (Query_containment.region_and_attrs_ok ~query:q ~stored:s.query)
                then None
                else
                  let ok =
                    match cond with
                    | Some c ->
                        Symbolic.Compiled.eval c.staged ~left:values
                          ~right:s.values
                    | None ->
                        (* Compilation blew up: direct check. *)
                        Filter_containment.contained q.Query.filter
                          s.query.Query.filter
                  in
                  if ok then Some (s.query, s.payload) else None)
              entries)
  in
  (* Same-template bucket first: it answers most hits cheaply. *)
  let same =
    match Hashtbl.find_opt t.buckets incoming_key with
    | Some bucket -> check_bucket incoming_key bucket None
    | None -> None
  in
  match same with
  | Some _ as hit -> hit
  | None ->
      Hashtbl.fold
        (fun key bucket acc ->
          if String.equal key incoming_key then acc else check_bucket key bucket acc)
        t.buckets None

let find_container t q = find_container_where t q ~pred:(fun _ _ -> true)

let fold t ~init ~f =
  Hashtbl.fold
    (fun _ bucket acc ->
      List.fold_left (fun acc s -> f acc s.query s.payload) acc bucket.entries)
    t.buckets init

let iter t ~f = fold t ~init:() ~f:(fun () q p -> f q p)
let comparisons t = t.comparisons
