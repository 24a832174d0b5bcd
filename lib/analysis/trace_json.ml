(* Chrome trace_event export of a span forest.

   Renders an assembled [Dtrace] forest in the Chrome tracing / Perfetto
   JSON format ("trace event format", JSON-object flavor, one event per
   line).  Load the output in chrome://tracing or ui.perfetto.dev: a
   compile forest gives the WatchTool activity view of paper Figures 4
   and 7, a serve or farm forest the nested request anatomy.

   - each root span (a compile, a served job, the farm run) is a thread
     lane on pid 0, its tile/annotation subtree as nested "X" events —
     Chrome nests same-lane X events by interval containment, which the
     forest's containment invariant guarantees;
   - rpc attempt/hedge legs deliberately overlap, which would corrupt
     same-lane nesting, so they export as async "b"/"e" pairs;
   - each engine (the DES run of a compile, or a [Driver.compile]
     captured under a traced serve/farm run) becomes its own process
     (pid = the span owning its tasks): one thread lane per simulated
     processor carrying the run and barrier-wait spans, and each task
     as an async slice — the queue and wait segments are the gaps;
   - the forest's fault instants (injections, retries, quarantines,
     watchdog rescues) are global instant events.

   Timestamps are microseconds of simulated time. *)

module D = Mcc_obs.Dtrace
module J = Mcc_obs.Json

let export_spans ~sec_per_unit (t : D.t) : string =
  let micros u = J.Float (u *. sec_per_unit *. 1e6) in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : D.span) -> Hashtbl.replace by_id s.D.d_span s) t.D.spans;
  let parent_of (s : D.span) = Hashtbl.find_opt by_id s.D.d_parent in
  let rec root_of (s : D.span) =
    match parent_of s with Some p -> root_of p | None -> s.D.d_span
  in
  let events = ref [] in
  let emit fields = events := J.Obj fields :: !events in
  let meta what pid tid name =
    emit
      ([ ("name", J.Str what); ("ph", J.Str "M"); ("pid", J.Int pid) ]
      @ (match tid with Some tid -> [ ("tid", J.Int tid) ] | None -> [])
      @ [ ("args", J.Obj [ ("name", J.Str name) ]) ])
  in
  let event ?(extra = []) ph (s : D.span) cat ts pid tid =
    emit
      ([ ("name", J.Str s.D.d_name); ("cat", J.Str cat); ("ph", J.Str ph) ]
      @ extra
      @ [ ("ts", micros ts) ]
      @ (if ph = "X" then [ ("dur", micros (D.duration s)) ] else [])
      @ [
          ("pid", J.Int pid);
          ("tid", J.Int tid);
          ( "args",
            J.Obj
              [
                ("span", J.Int s.D.d_span);
                ("kind", J.Str s.D.d_kind);
                ("status", J.Str s.D.d_status);
                ("node", J.Int s.D.d_node);
                ("trace", J.Str s.D.d_trace);
              ] );
        ])
  in
  let async (s : D.span) cat pid tid =
    event ~extra:[ ("id", J.Int s.D.d_span) ] "b" s cat s.D.d_t0 pid tid;
    event ~extra:[ ("id", J.Int s.D.d_span) ] "e" s cat s.D.d_t1 pid tid
  in
  List.iter
    (fun (r : D.span) ->
      meta "thread_name" 0 (Some r.D.d_span) (Printf.sprintf "%s [%s]" r.D.d_name r.D.d_trace))
    (D.roots t);
  (* parents before children at equal start times, so same-lane X
     events nest instead of fighting for the slot *)
  let ordered =
    List.sort
      (fun (a : D.span) b ->
        compare (a.D.d_t0, -.a.D.d_t1, a.D.d_span) (b.D.d_t0, -.b.D.d_t1, b.D.d_span))
      t.D.spans
  in
  let engines = Hashtbl.create 16 and lanes = Hashtbl.create 16 in
  List.iter
    (fun (s : D.span) ->
      match (s.D.d_kind, parent_of s) with
      | "inner-task", Some owner ->
          if not (Hashtbl.mem engines owner.D.d_span) then begin
            Hashtbl.add engines owner.D.d_span ();
            meta "process_name" owner.D.d_span None
              (Printf.sprintf "inner engine of span #%d · %s" owner.D.d_span owner.D.d_name)
          end;
          async s "inner" owner.D.d_span 0
      | _, Some task when task.D.d_kind = "inner-task" ->
          (* a task segment: run and barrier-wait on their processor's
             lane; queue, wait and backoff stretches stay implicit *)
          if s.D.d_proc >= 0 then begin
            let pid = task.D.d_parent in
            if not (Hashtbl.mem lanes (pid, s.D.d_proc)) then begin
              Hashtbl.add lanes (pid, s.D.d_proc) ();
              meta "thread_name" pid (Some s.D.d_proc) (Printf.sprintf "proc %d" s.D.d_proc)
            end;
            event "X" s s.D.d_cls s.D.d_t0 pid s.D.d_proc
          end
      | "rpc", _ -> async s "rpc" 0 (root_of s)
      | _ -> event "X" s s.D.d_kind s.D.d_t0 0 (root_of s))
    ordered;
  List.iter
    (fun (i : D.instant) ->
      emit
        [
          ("name", J.Str i.D.i_name);
          ("cat", J.Str "fault");
          ("ph", J.Str "i");
          ("s", J.Str "g");
          ("ts", micros i.D.i_t);
          ("pid", J.Int 0);
          ("args", J.Obj [ ("detail", J.Str i.D.i_detail) ]);
        ])
    t.D.instants;
  "{\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.rev_map J.to_string !events)
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"
