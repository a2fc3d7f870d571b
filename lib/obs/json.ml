type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest decimal form that parses back to the same double, so a
   print/parse round trip is the identity on every finite float.  An
   integral value keeps a fraction ("3.0"): printed bare it would parse
   back as an [Int]. *)
let float_repr f =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite float"
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let expect_lit c lit value =
  if
    c.pos + String.length lit <= String.length c.s
    && String.sub c.s c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    value
  end
  else error c (Printf.sprintf "expected %s" lit)

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.s then error c "truncated \\u escape";
        let hex = String.sub c.s c.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | None -> error c "bad \\u escape"
        | Some code ->
          c.pos <- c.pos + 4;
          add_utf8 buf code;
          go ())
      | _ -> error c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub c.s start (c.pos - start) in
  let is_float =
    String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text
  in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error c "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Integer literal too large for an int: fall back to float. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          field ()
        | Some '}' -> advance c
        | _ -> error c "expected ',' or '}'"
      in
      field ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec item () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          item ()
        | Some ']' -> advance c
        | _ -> error c "expected ',' or ']'"
      in
      item ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string c)
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected '%c'" ch)

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage"
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
