(* A minimal deterministic JSON builder and syntax checker.

   The profile, trace and bench exporters need (a) byte-stable output —
   two runs with the same seed/config must serialize identically, so
   field order is the construction order and float formatting is
   fixed — and (b) a way
   for the CLI / bench / CI to assert that what they wrote is
   well-formed without adding a dependency the container doesn't have.
   This is a complete JSON *syntax* validator, not a schema language;
   schema-level checks (required fields, sum invariants) live with the
   producers. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Fixed-format floats: integral values print without a fraction, the
   rest with six decimals.  Total and deterministic (no %g rounding
   surprises across values of different magnitude). *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let to_string (v : t) : string =
  let buf = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_str f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Syntax validation (recursive descent over the string) *)

exception Bad of int * string

let validate (s : string) : (unit, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = pos := !pos + 1 in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then pos := !pos + l
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          fin := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some c when (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
                  ->
                    advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some _ -> advance ()
    done
  in
  let digits () =
    let got = ref false in
    while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
      advance ();
      got := true
    done;
    if not !got then fail "expected digit"
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> string_lit ()
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' ->
                advance ();
                fin := true
            | _ -> fail "expected ',' or '}'"
          done
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' ->
                advance ();
                fin := true
            | _ -> fail "expected ',' or ']'"
          done
        end
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage"
  with
  | () -> Ok ()
  | exception Bad (p, msg) -> Error (Printf.sprintf "invalid JSON at byte %d: %s" p msg)
