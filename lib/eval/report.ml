type table = {
  title : string;
  notes : string list;
  columns : string list;
  rows : string list list;
  appendix : string;
}

let make ~title ?(notes = []) ?(appendix = "") ~columns ~rows () =
  { title; notes; columns; rows; appendix }

let of_json ~title ?notes ~keys rows =
  let cell row key =
    match row with
    | Json.Obj members -> (
        match List.assoc_opt key members with
        | Some (Json.String s) -> s
        | Some v -> Json.compact v
        | None -> invalid_arg ("Report.of_json: a row has no member " ^ key))
    | _ -> invalid_arg "Report.of_json: a row is not an object"
  in
  make ~title ?notes ~columns:keys ~rows:(List.map (fun row -> List.map (cell row) keys) rows) ()

let fmt_float v = Printf.sprintf "%.3f" v
let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let to_string t =
  let buf = Buffer.create 1024 in
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun w row ->
            match List.nth_opt row i with
            | Some cell -> max w (String.length cell)
            | None -> w)
          (String.length col) t.rows)
      t.columns
  in
  let line ch =
    Buffer.add_string buf
      (String.concat "-+-" (List.map (fun w -> String.make w ch) widths));
    Buffer.add_char buf '\n'
  in
  let row cells =
    let padded =
      List.mapi
        (fun i cell ->
          let w = List.nth widths i in
          cell ^ String.make (max 0 (w - String.length cell)) ' ')
        cells
    in
    Buffer.add_string buf (String.concat " | " padded);
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  List.iter (fun n -> Buffer.add_string buf ("   " ^ n ^ "\n")) t.notes;
  row t.columns;
  line '-';
  List.iter row t.rows;
  if t.appendix <> "" then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf t.appendix
  end;
  Buffer.contents buf

let print t = print_string (to_string t ^ "\n")
