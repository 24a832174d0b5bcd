(* In-memory spans recorded around calls into the compiler's layers.

   Tracing is off by default and [with_span] is then a plain call.  When
   it is on, every span keeps its name, its parent, its start and end on
   the monotonic clock and the minor words its domain allocated, and the
   spans are written out once, when the run ends.  A layer's self time
   is its spans' duration minus the part covered by their child spans. *)

let now () = Monotonic_clock.now ()

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] at the root *)
  round : int;  (** which traced pass made it *)
  t0 : int64;
  mutable t1 : int64;
  w0 : float;
  mutable words : float;
}

let on = ref false
let round = ref 0
let recorded : t list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let with_span name f =
  if not !on then f ()
  else begin
    let id = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; round = !round; t0 = now (); t1 = 0L; w0 = Gc.minor_words (); words = 0.0 } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        s.words <- Gc.minor_words () -. s.w0;
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* The spans recorded so far, oldest first; the record is emptied. *)
let take () =
  let spans = List.rev !recorded in
  recorded := [];
  spans

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Per span name: (self ns, self minor words), averaged over the rounds
   the name occurs in. *)
let self_totals spans =
  let child_ns = Hashtbl.create 256 and child_words = Hashtbl.create 256 in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_ns s.parent (dur s);
        bump child_words s.parent s.words
      end)
    spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let ns = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id) in
      let words = s.words -. Option.value ~default:0.0 (Hashtbl.find_opt child_words s.id) in
      let ns0, w0, rounds = Option.value ~default:(0.0, 0.0, []) (Hashtbl.find_opt totals s.name) in
      let rounds = if List.mem s.round rounds then rounds else s.round :: rounds in
      Hashtbl.replace totals s.name (ns0 +. ns, w0 +. words, rounds))
    spans;
  fun name ->
    match Hashtbl.find_opt totals name with
    | None -> (0.0, 0.0)
    | Some (ns, words, rounds) ->
        let n = float_of_int (List.length rounds) in
        (ns /. n, words /. n)

(* Chrome trace-event JSON (loadable in Perfetto or chrome://tracing), one
   process per group of spans.  Returns the number of spans written. *)
let write path groups =
  let base = match groups with (_, s :: _) :: _ -> s.t0 | _ -> 0L in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun pid (label, spans) ->
          Printf.fprintf oc "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%S}}\n"
            (if pid = 0 then "" else ",")
            (pid + 1) label;
          List.iter
            (fun s ->
              Printf.fprintf oc
                ",{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d,\"minor_words\":%.0f}}\n"
                s.name (pid + 1)
                (Int64.to_float (Int64.sub s.t0 base) /. 1000.0)
                (dur s /. 1000.0) s.id s.parent s.round s.words)
            spans)
        groups;
      output_string oc "]}\n");
  List.fold_left (fun n (_, spans) -> n + List.length spans) 0 groups
