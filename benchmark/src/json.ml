(* A minimal JSON value, printer and parser: enough for the benchmark's
   result files, the one-line result a `bench` run ends with, and reading
   BENCHMARK.json.  Numbers print in the shortest form that reads back to
   the same float, so a measured value keeps all its digits. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let rec write b ~indent ~depth v =
  let nl d =
    if indent then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * d) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f ->
      (* JSON has no NaN or infinity; a metric that is not a number is a
         bug upstream, and null makes it visible instead of unparsable. *)
      if Float.is_finite f then Buffer.add_string b (float_repr f)
      else Buffer.add_string b "null"
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          nl (depth + 1);
          write b ~indent ~depth:(depth + 1) x)
        items;
      nl depth;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          nl (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b (if indent then "\": " else "\":");
          write b ~indent ~depth:(depth + 1) x)
        fields;
      nl depth;
      Buffer.add_char b '}'

let to_string ?(indent = false) v =
  let b = Buffer.create 256 in
  write b ~indent ~depth:0 v;
  Buffer.contents b

exception Parse_error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    if !pos < n then
      match text.[!pos] with
      | ' ' | '\n' | '\r' | '\t' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if !pos < n && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = text.[!pos] in
        incr pos;
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
            if !pos >= n then fail "bad escape";
            let e = text.[!pos] in
            incr pos;
            (match e with
            | '"' | '\\' | '/' -> Buffer.add_char b e
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 > n then fail "bad \\u escape";
                let code = int_of_string ("0x" ^ String.sub text !pos 4) in
                pos := !pos + 4;
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_utf_8_uchar b (Uchar.of_int code)
            | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match text.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let s = String.sub text start (!pos - start) in
    match int_of_string_opt s with
    | Some i when not (String.contains s '.') -> Int i
    | _ -> (
        match float_of_string_opt s with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end";
    match text.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && text.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && text.[!pos] = ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              List (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing bytes at %d" !pos)
      else Ok v
  | exception Parse_error msg -> Error msg
  | exception Failure msg -> Error msg

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let write_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string ~indent:true v);
      output_char oc '\n')

(* Accessors: [None] when the shape does not match. *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Num f -> Some f
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_str = function Str s -> Some s | _ -> None
