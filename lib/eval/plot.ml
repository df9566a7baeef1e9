let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@' |]

let height = 12

let render ?y_max ~x_labels ~series () =
  let columns = List.length x_labels in
  let y_max =
    match y_max with
    | Some v -> max v 1e-9
    | None ->
        List.fold_left
          (fun acc (_, values) -> List.fold_left max acc values)
          1e-9 series
  in
  (* Each x position gets a fixed-width column so labels line up. *)
  let col_width =
    List.fold_left (fun w l -> max w (String.length l)) 1 x_labels + 2
  in
  let grid = Array.make_matrix height (columns * col_width) ' ' in
  List.iteri
    (fun si (_, values) ->
      let glyph = glyphs.(si mod Array.length glyphs) in
      List.iteri
        (fun xi v ->
          if xi < columns then begin
            let level =
              int_of_float (Float.round (v /. y_max *. float_of_int (height - 1)))
            in
            let row = height - 1 - max 0 (min (height - 1) level) in
            let col = (xi * col_width) + (col_width / 2) in
            (* Later series overwrite earlier ones at collisions. *)
            grid.(row).(col) <- glyph
          end)
        values)
    series;
  let buf = Buffer.create ((height + 3) * ((columns * col_width) + 12)) in
  Array.iteri
    (fun row line ->
      let y_value =
        y_max *. float_of_int (height - 1 - row) /. float_of_int (height - 1)
      in
      Buffer.add_string buf (Printf.sprintf "%5.2f |" y_value);
      Buffer.add_string buf (String.init (Array.length line) (Array.get line));
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf "      +";
  Buffer.add_string buf (String.make (columns * col_width) '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf "       ";
  List.iter
    (fun label ->
      let pad = col_width - String.length label in
      let left = pad / 2 in
      Buffer.add_string buf (String.make left ' ');
      Buffer.add_string buf label;
      Buffer.add_string buf (String.make (pad - left) ' '))
    x_labels;
  Buffer.add_char buf '\n';
  List.iteri
    (fun si (name, _) ->
      Buffer.add_string buf
        (Printf.sprintf "       %c %s\n" glyphs.(si mod Array.length glyphs) name))
    series;
  Buffer.contents buf
