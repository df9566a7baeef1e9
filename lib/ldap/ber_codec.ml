type result_done = {
  code : int;
  matched : Dn.t;
  diagnostic : string;
  referral : string list;
}

type operation =
  | Search_request of Query.t
  | Search_result_entry of Entry.t
  | Search_result_reference of string list
  | Search_result_done of result_done

type control = {
  control_type : string;
  criticality : bool;
  control_value : string option;
}

type message = { id : int; op : operation; controls : control list }

let manage_dsa_it_oid = "2.16.840.1.113730.3.4.2"
let resync_oid = "1.3.6.1.4.1.4203.666.5.99"

(* --- DER primitives ---------------------------------------------------- *)

(* Tag bytes. *)
let tag_boolean = 0x01
let tag_integer = 0x02
let tag_octet_string = 0x04
let tag_enumerated = 0x0a
let tag_sequence = 0x30
let tag_set = 0x31
let app tag = 0x60 lor tag (* application, constructed *)
let ctx tag = 0x80 lor tag (* context, primitive *)
let ctxc tag = 0xa0 lor tag (* context, constructed *)

(* --- Backwards writer (zero-copy encode) --------------------------------- *)

(* DER is [tag length body] with the length in front of a body whose
   size is only known once it is written.  The writer emits into an
   [Ldap_compile.Wbuf] backwards: body first (children in {e reverse}
   order), then the length and tag prepended over it, so no nested
   value is materialized and each byte is written once. *)
module Writer = struct
  module Wbuf = Ldap_compile.Wbuf

  let mark = Wbuf.mark

  let prepend_length w n =
    if n < 0x80 then Wbuf.prepend_char w (Char.chr n)
    else begin
      let rec go n count =
        if n = 0 then count
        else begin
          Wbuf.prepend_char w (Char.chr (n land 0xff));
          go (n lsr 8) (count + 1)
        end
      in
      let count = go n 0 in
      Wbuf.prepend_char w (Char.chr (0x80 lor count))
    end

  (* Close the TLV whose body has been emitted since [m]. *)
  let close w ~tag m =
    prepend_length w (Wbuf.since w m);
    Wbuf.prepend_char w (Char.chr tag)

  let octets ?(tag = tag_octet_string) w s =
    let m = mark w in
    Wbuf.prepend_string w s;
    close w ~tag m

  let integer w n =
    if n < 0 then invalid_arg "der_integer: negative";
    let m = mark w in
    if n = 0 then Wbuf.prepend_char w '\000'
    else begin
      (* Prepending least-significant first lays bytes out big-endian. *)
      let rec go n = if n <> 0 then begin
        Wbuf.prepend_char w (Char.chr (n land 0xff));
        go (n lsr 8)
      end
      in
      go n;
      let rec top n = if n < 0x100 then n else top (n lsr 8) in
      if top n >= 0x80 then Wbuf.prepend_char w '\000'
    end;
    close w ~tag:tag_integer m

  let enum ?(tag = tag_enumerated) w n =
    let m = mark w in
    Wbuf.prepend_char w (Char.chr n);
    close w ~tag m

  let boolean w v =
    let m = mark w in
    Wbuf.prepend_char w (if v then '\xff' else '\x00');
    close w ~tag:tag_boolean m
end

(* --- Filter encoding (RFC 2251 section 4.5.1) --------------------------- *)

open struct
  module Wr = Writer
end

let rec emit_filter w (f : Filter.t) =
  match f with
  | Filter.And gs ->
      let m = Wr.mark w in
      List.iter (emit_filter w) (List.rev gs);
      Wr.close w ~tag:(ctxc 0) m
  | Filter.Or gs ->
      let m = Wr.mark w in
      List.iter (emit_filter w) (List.rev gs);
      Wr.close w ~tag:(ctxc 1) m
  | Filter.Not g ->
      let m = Wr.mark w in
      emit_filter w g;
      Wr.close w ~tag:(ctxc 2) m
  | Filter.Pred p -> emit_pred w p

and emit_ava w tag attr value =
  let m = Wr.mark w in
  Wr.octets w value;
  Wr.octets w attr;
  Wr.close w ~tag m

and emit_pred w = function
  | Filter.Equality (a, v) -> emit_ava w (ctxc 3) a v
  | Filter.Greater_eq (a, v) -> emit_ava w (ctxc 5) a v
  | Filter.Less_eq (a, v) -> emit_ava w (ctxc 6) a v
  | Filter.Approx (a, v) -> emit_ava w (ctxc 8) a v
  | Filter.Present a -> Wr.octets ~tag:(ctx 7) w a
  | Filter.Substrings (a, { initial; any; final }) ->
      let m = Wr.mark w in
      let ms = Wr.mark w in
      (match final with Some s -> Wr.octets ~tag:(ctx 2) w s | None -> ());
      List.iter (fun s -> Wr.octets ~tag:(ctx 1) w s) (List.rev any);
      (match initial with Some s -> Wr.octets ~tag:(ctx 0) w s | None -> ());
      Wr.close w ~tag:tag_sequence ms;
      Wr.octets w a;
      Wr.close w ~tag:(ctxc 4) m

(* --- Message encoding ---------------------------------------------------- *)

let emit_control w c =
  let m = Wr.mark w in
  (match c.control_value with Some v -> Wr.octets w v | None -> ());
  if c.criticality then Wr.boolean w true;
  Wr.octets w c.control_type;
  Wr.close w ~tag:tag_sequence m

let emit_search_request w (q : Query.t) =
  let attrs =
    match q.Query.attrs with Query.All -> [] | Query.Select l -> l
  in
  let m = Wr.mark w in
  let ma = Wr.mark w in
  List.iter (fun a -> Wr.octets w a) (List.rev attrs);
  Wr.close w ~tag:tag_sequence ma;
  emit_filter w (q.Query.filter :> Filter.t);
  Wr.boolean w false (* typesOnly *);
  Wr.integer w 0 (* timeLimit *);
  Wr.integer w 0 (* sizeLimit *);
  Wr.enum w 0 (* neverDerefAliases *);
  Wr.enum w (Scope.to_int q.Query.scope);
  Wr.octets w (Dn.to_string q.Query.base);
  Wr.close w ~tag:(app 3) m

(* Backwards writer: the last attribute, and within it the last value,
   goes in first. *)
let encode_entry w (e : Entry.t) =
  let m = Wr.mark w in
  let mattrs = Wr.mark w in
  let slots = Entry.compiled e in
  for i = Array.length slots - 1 downto 0 do
    let s = slots.(i) in
    let mone = Wr.mark w in
    let mvals = Wr.mark w in
    for k = Array.length s.raw - 1 downto 0 do
      Wr.octets w s.raw.(k)
    done;
    Wr.close w ~tag:tag_set mvals;
    Wr.octets w (Ldap_compile.Attr_id.name s.id);
    Wr.close w ~tag:tag_sequence mone
  done;
  Wr.close w ~tag:tag_sequence mattrs;
  Wr.octets w (Dn.to_string (Entry.dn e));
  Wr.close w ~tag:(app 4) m

(* An entry's image is copied when its record keeps one, which only
   [Der.entry] and [Der.W.keep_entry] fill. *)
let emit_entry w e =
  match Entry.cached_der e with
  | Some s -> Ldap_compile.Wbuf.prepend_string w s
  | None -> encode_entry w e

let emit_done w (r : result_done) =
  let m = Wr.mark w in
  if r.referral <> [] then begin
    let mr = Wr.mark w in
    List.iter (fun u -> Wr.octets w u) (List.rev r.referral);
    Wr.close w ~tag:(ctxc 3) mr
  end;
  Wr.octets w r.diagnostic;
  Wr.octets w (Dn.to_string r.matched);
  Wr.enum w r.code;
  Wr.close w ~tag:(app 5) m

let emit_op w = function
  | Search_request q -> emit_search_request w q
  | Search_result_entry e -> emit_entry w e
  | Search_result_reference urls ->
      let m = Wr.mark w in
      List.iter (fun u -> Wr.octets w u) (List.rev urls);
      Wr.close w ~tag:(app 19) m
  | Search_result_done r -> emit_done w r

let emit_message w m =
  let mm = Wr.mark w in
  if m.controls <> [] then begin
    let mc = Wr.mark w in
    List.iter (emit_control w) (List.rev m.controls);
    Wr.close w ~tag:(ctxc 0) mc
  end;
  emit_op w m.op;
  Wr.integer w m.id;
  Wr.close w ~tag:tag_sequence mm

(* One buffer reused across every encode in the process; emitters never
   re-enter [encode], so sharing is safe. *)
let scratch = Ldap_compile.Wbuf.create ~capacity:4096 ()

let encode_to = emit_message

(* The image [emit] writes for [x], copied out of [scratch]. *)
let with_scratch emit x =
  Ldap_compile.Wbuf.clear scratch;
  emit scratch x;
  Ldap_compile.Wbuf.contents scratch

let encode m = with_scratch emit_message m

let encoded_size m =
  Ldap_compile.Wbuf.clear scratch;
  emit_message scratch m;
  Ldap_compile.Wbuf.length scratch

(* --- Decoding ------------------------------------------------------------ *)

exception Decode_error of string

type cursor = { buf : string; mutable pos : int; limit : int }

let sub_cursor c len =
  if c.pos + len > c.limit then raise (Decode_error "truncated value");
  let inner = { buf = c.buf; pos = c.pos; limit = c.pos + len } in
  c.pos <- c.pos + len;
  inner

let byte c =
  if c.pos >= c.limit then raise (Decode_error "unexpected end of input");
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let read_length c =
  let first = byte c in
  if first < 0x80 then first
  else
    let count = first land 0x7f in
    if count = 0 || count > 4 then raise (Decode_error "unsupported length form")
    else begin
      let n = ref 0 in
      for _ = 1 to count do
        n := (!n lsl 8) lor byte c
      done;
      !n
    end

let read_tlv c =
  let tag = byte c in
  let len = read_length c in
  (tag, sub_cursor c len)

let expect_tag expected (tag, inner) =
  if tag <> expected then
    raise (Decode_error (Printf.sprintf "expected tag 0x%02x, got 0x%02x" expected tag));
  inner

let contents c = String.sub c.buf c.pos (c.limit - c.pos)

let at_end c = c.pos >= c.limit

(* Big-endian fold over the cursor's remaining region in place — the
   scalar readers never materialize an intermediate substring. *)
let fold_be inner =
  let acc = ref 0 in
  for i = inner.pos to inner.limit - 1 do
    acc := (!acc lsl 8) lor Char.code (String.unsafe_get inner.buf i)
  done;
  !acc

(* The old reader treated exactly the body "\x00" as false; keep that. *)
let is_false_body inner =
  inner.limit - inner.pos = 1 && inner.buf.[inner.pos] = '\x00'

let read_integer c = fold_be (expect_tag tag_integer (read_tlv c))
let read_enum ?(tag = tag_enumerated) c = fold_be (expect_tag tag (read_tlv c))
let read_bool c = not (is_false_body (expect_tag tag_boolean (read_tlv c)))

let read_octets ?(tag = tag_octet_string) c =
  contents (expect_tag tag (read_tlv c))

let read_dn s =
  match Dn.of_string s with
  | Ok dn -> dn
  | Error e -> raise (Decode_error e)

let rec decode_filter c =
  let tag, inner = read_tlv c in
  let read_ava () =
    let a = read_octets inner in
    let v = read_octets inner in
    (a, v)
  in
  if tag = ctxc 0 then Filter.And (decode_filter_list inner)
  else if tag = ctxc 1 then Filter.Or (decode_filter_list inner)
  else if tag = ctxc 2 then Filter.Not (decode_filter inner)
  else if tag = ctxc 3 then
    let a, v = read_ava () in
    Filter.Pred (Filter.Equality (a, v))
  else if tag = ctxc 5 then
    let a, v = read_ava () in
    Filter.Pred (Filter.Greater_eq (a, v))
  else if tag = ctxc 6 then
    let a, v = read_ava () in
    Filter.Pred (Filter.Less_eq (a, v))
  else if tag = ctxc 8 then
    let a, v = read_ava () in
    Filter.Pred (Filter.Approx (a, v))
  else if tag = ctx 7 then Filter.Pred (Filter.Present (contents inner))
  else if tag = ctxc 4 then begin
    let a = read_octets inner in
    let subs = expect_tag tag_sequence (read_tlv inner) in
    let initial = ref None and any = ref [] and final = ref None in
    while not (at_end subs) do
      let stag, sinner = read_tlv subs in
      let v = contents sinner in
      if stag = ctx 0 then initial := Some v
      else if stag = ctx 1 then any := v :: !any
      else if stag = ctx 2 then final := Some v
      else raise (Decode_error "bad substring component")
    done;
    Filter.Pred
      (Filter.Substrings
         (a, { Filter.initial = !initial; any = List.rev !any; final = !final }))
  end
  else raise (Decode_error (Printf.sprintf "unknown filter tag 0x%02x" tag))

and decode_filter_list c =
  let rec go acc = if at_end c then List.rev acc else go (decode_filter c :: acc) in
  go []

let decode_controls c =
  let rec go acc =
    if at_end c then List.rev acc
    else begin
      let inner = expect_tag tag_sequence (read_tlv c) in
      let control_type = read_octets inner in
      (* Optional criticality, then optional value. *)
      let criticality = ref false and control_value = ref None in
      while not (at_end inner) do
        let tag, vinner = read_tlv inner in
        if tag = tag_boolean then criticality := not (is_false_body vinner)
        else if tag = tag_octet_string then control_value := Some (contents vinner)
        else raise (Decode_error "bad control field")
      done;
      go ({ control_type; criticality = !criticality; control_value = !control_value } :: acc)
    end
  in
  go []

let decode_search_request c =
  let base = read_dn (read_octets c) in
  let scope =
    match Scope.of_int (read_enum c) with
    | Some s -> s
    | None -> raise (Decode_error "bad scope")
  in
  let _deref = read_enum c in
  let _size = read_integer c in
  let _time = read_integer c in
  let _types_only = read_bool c in
  let filter = decode_filter c in
  let attr_seq = expect_tag tag_sequence (read_tlv c) in
  let rec attrs acc =
    if at_end attr_seq then List.rev acc else attrs (read_octets attr_seq :: acc)
  in
  let attr_list = attrs [] in
  let attrs = if attr_list = [] then Query.All else Query.Select attr_list in
  Query.make ~scope ~attrs ~base filter

let decode_entry c =
  let dn = read_dn (read_octets c) in
  let attr_seq = expect_tag tag_sequence (read_tlv c) in
  let rec attrs acc =
    if at_end attr_seq then List.rev acc
    else begin
      let one = expect_tag tag_sequence (read_tlv attr_seq) in
      let name = read_octets one in
      let vals = expect_tag tag_set (read_tlv one) in
      let rec values vacc =
        if at_end vals then List.rev vacc else values (read_octets vals :: vacc)
      in
      attrs ((name, values []) :: acc)
    end
  in
  Entry.make dn (attrs [])

let decode_done c =
  let code = read_enum c in
  let matched = read_dn (read_octets c) in
  let diagnostic = read_octets c in
  let referral =
    if at_end c then []
    else begin
      let inner = expect_tag (ctxc 3) (read_tlv c) in
      let rec go acc = if at_end inner then List.rev acc else go (read_octets inner :: acc) in
      go []
    end
  in
  { code; matched; diagnostic; referral }

let decode_reference c =
  let rec go acc = if at_end c then List.rev acc else go (read_octets c :: acc) in
  go []

let decode s =
  let c = { buf = s; pos = 0; limit = String.length s } in
  match
    let outer = expect_tag tag_sequence (read_tlv c) in
    if not (at_end c) then raise (Decode_error "trailing bytes after message");
    let id = read_integer outer in
    let tag, inner = read_tlv outer in
    let op =
      if tag = app 3 then Search_request (decode_search_request inner)
      else if tag = app 4 then Search_result_entry (decode_entry inner)
      else if tag = app 19 then Search_result_reference (decode_reference inner)
      else if tag = app 5 then Search_result_done (decode_done inner)
      else raise (Decode_error (Printf.sprintf "unknown protocol op 0x%02x" tag))
    in
    let controls =
      if at_end outer then []
      else decode_controls (expect_tag (ctxc 0) (read_tlv outer))
    in
    { id; op; controls }
  with
  | m -> Ok m
  | exception Decode_error e -> Error e

(* --- The resync control --------------------------------------------------- *)

let mode_code = function
  | "poll" -> 0
  | "persist" -> 1
  | "sync_end" -> 2
  | m -> invalid_arg ("unknown resync mode: " ^ m)

let mode_name = function
  | 0 -> Ok "poll"
  | 1 -> Ok "persist"
  | 2 -> Ok "sync_end"
  | n -> Error (Printf.sprintf "unknown resync mode code %d" n)

let emit_resync_value w (mode, cookie) =
  let m = Wr.mark w in
  Option.iter (Wr.octets w) cookie;
  Wr.enum w (mode_code mode);
  Wr.close w ~tag:tag_sequence m

let resync_control ~mode ~cookie =
  {
    control_type = resync_oid;
    criticality = true;
    control_value = Some (with_scratch emit_resync_value (mode, cookie));
  }

let decode_resync_control control =
  if control.control_type <> resync_oid then Error "not a resync control"
  else
    match control.control_value with
    | None -> Error "resync control has no value"
    | Some v -> (
        let c = { buf = v; pos = 0; limit = String.length v } in
        match
          let inner = expect_tag tag_sequence (read_tlv c) in
          let mode = read_enum inner in
          let cookie = if at_end inner then None else Some (read_octets inner) in
          (mode, cookie)
        with
        | mode, cookie -> Result.map (fun m -> (m, cookie)) (mode_name mode)
        | exception Decode_error e -> Error e)

(* --- Convenience ------------------------------------------------------------ *)

let search_request ?(id = 1) q =
  let controls =
    if q.Query.manage_dsa_it then
      [ { control_type = manage_dsa_it_oid; criticality = true; control_value = None } ]
    else []
  in
  { id; op = Search_request q; controls }

let entry_message ?(id = 1) e = { id; op = Search_result_entry e; controls = [] }

module Der = struct
  type nonrec cursor = cursor

  let encode e = with_scratch encode_entry e
  let entry e = Entry.der e ~compute:encode

  module W = struct
    type w = Ldap_compile.Wbuf.t

    let mark = Writer.mark
    let close_seq w m = Writer.close w ~tag:tag_sequence m
    let close_octets w m = Writer.close w ~tag:tag_octet_string m
    let integer = Writer.integer
    let boolean = Writer.boolean
    let enum w n = Writer.enum w n
    let octets w s = Writer.octets w s
    let option w f = function
      | None -> close_seq w (mark w)
      | Some v ->
          let m = mark w in
          f v;
          close_seq w m
    let keep_entry w e = Ldap_compile.Wbuf.prepend_string w (entry e)
    let entry = emit_entry
    let query = emit_search_request
  end

  let cursor s = { buf = s; pos = 0; limit = String.length s }
  let at_end = at_end
  let read_integer c = read_integer c
  let read_boolean = read_bool
  let read_enum c = read_enum c
  let read_octets c = read_octets c
  let read_seq c = expect_tag tag_sequence (read_tlv c)
  let read_option f c =
    let inner = read_seq c in
    if at_end inner then None else Some (f inner)
  let read_entry c = decode_entry (expect_tag (app 4) (read_tlv c))
  let read_query c = decode_search_request (expect_tag (app 3) (read_tlv c))
end
