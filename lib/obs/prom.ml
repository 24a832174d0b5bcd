(* Prometheus text exposition format.

   Renders a list of samples as the Prometheus text format, one # TYPE
   header per metric name and histograms expanded into cumulative
   _bucket/_sum/_count series.  Callers pass the samples sorted by
   (name, labels), so the output is byte-deterministic.

   [validate] is a line-level checker for the same grammar — enough for
   the CLI and CI to assert that an export would be accepted by a
   Prometheus scraper, without a client library dependency. *)

type value =
  | VCounter of float
  | VGauge of float
  | VHistogram of { h_bounds : float array; h_counts : int array; h_sum : float; h_count : int }

type sample = { s_name : string; s_labels : (string * string) list; s_value : value }

let escape_label v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let labels_str = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

let render (samples : sample list) : string =
  let buf = Buffer.create 2048 in
  let last_type = ref "" in
  let type_line name kind =
    if !last_type <> name then begin
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
      last_type := name
    end
  in
  List.iter
    (fun s ->
      let name = s.s_name and labels = s.s_labels in
      match s.s_value with
      | VCounter v ->
          type_line name "counter";
          Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name (labels_str labels) (num v))
      | VGauge v ->
          type_line name "gauge";
          Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name (labels_str labels) (num v))
      | VHistogram { h_bounds; h_counts; h_sum; h_count } ->
          type_line name "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + h_counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (labels_str (labels @ [ ("le", num b) ]))
                   !cum))
            h_bounds;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name (labels_str (labels @ [ ("le", "+Inf") ])) h_count);
          Buffer.add_string buf (Printf.sprintf "%s_sum%s %s\n" name (labels_str labels) (num h_sum));
          Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name (labels_str labels) h_count))
    samples;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Exposition-format line checker *)

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let check_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let name_ok () =
    match peek () with
    | Some c when is_name_start c ->
        while (match peek () with Some c when is_name_char c -> true | _ -> false) do
          pos := !pos + 1
        done;
        true
    | _ -> false
  in
  if not (name_ok ()) then Error "expected metric name"
  else begin
    (* optional label set *)
    let label_err = ref None in
    (if peek () = Some '{' then begin
       pos := !pos + 1;
       let fin = ref false in
       while not !fin && !label_err = None do
         if not (name_ok ()) then label_err := Some "expected label name"
         else if peek () <> Some '=' then label_err := Some "expected '='"
         else begin
           pos := !pos + 1;
           if peek () <> Some '"' then label_err := Some "expected '\"'"
           else begin
             pos := !pos + 1;
             let closed = ref false in
             while (not !closed) && !pos < n do
               (match line.[!pos] with
               | '\\' -> pos := !pos + 1 (* skip escaped char *)
               | '"' -> closed := true
               | _ -> ());
               pos := !pos + 1
             done;
             if not !closed then label_err := Some "unterminated label value"
             else
               match peek () with
               | Some ',' -> pos := !pos + 1
               | Some '}' ->
                   pos := !pos + 1;
                   fin := true
               | _ -> label_err := Some "expected ',' or '}'"
           end
         end
       done
     end);
    match !label_err with
    | Some e -> Error e
    | None ->
        if peek () <> Some ' ' then Error "expected space before value"
        else begin
          let v = String.sub line (!pos + 1) (n - !pos - 1) in
          match v with
          | "+Inf" | "-Inf" | "NaN" -> Ok ()
          | _ -> ( match float_of_string_opt v with Some _ -> Ok () | None -> Error "bad value")
        end
  end

let validate (text : string) : (unit, string) result =
  let lines = String.split_on_char '\n' text in
  let rec go i = function
    | [] -> Ok ()
    | "" :: rest -> go (i + 1) rest
    | line :: rest when String.length line > 0 && line.[0] = '#' -> go (i + 1) rest
    | line :: rest -> (
        match check_line line with
        | Ok () -> go (i + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s (%S)" i e line))
  in
  go 1 lines
