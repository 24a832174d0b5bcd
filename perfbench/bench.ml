(* The layered real-time benchmark of mcc.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Without tracing, a run repeats passes over the workload's inputs for S
   seconds, setting the workload up again (input generation + warm-up;
   the median is [setup_s]) before each pass, and reports the end-to-end
   metrics over the passes, host time calibrated by {!Calib}.  The
   metrics are generic so that every workload reports each of them; the
   per-stage times are per-layer metrics.  With tracing, untraced and
   traced passes alternate for S seconds; a layer the workload's pass does
   not call is measured on one pair of passes of the workload that does.
   The run reports the per-layer metrics and the tracing overhead, and
   writes its spans to .perfbench/.  Every compiled result is checked; the
   last line of standard output is one JSON object. *)

module L = Layers
module W = Workloads

(* ---- metric tables ---------------------------------------------------- *)

(* The per-layer metrics, in the order they are printed. *)
let per_layer =
  [
    ("lexer.tokens", "count");
    ("lexer.ns_per_token", "ns");
    ("lexer.ns_per_unit", "ns");
    ("lexer.minor_words", "words");
    ("parse.ms", "ms");
    ("parse.ns_per_token", "ns");
    ("parse.ns_per_unit", "ns");
    ("parse.minor_words", "words");
    ("emit.jobs", "count");
    ("emit.ms", "ms");
    ("emit.ns_per_unit", "ns");
    ("emit.minor_words", "words");
    ("link.units", "count");
    ("link.ms", "ms");
    ("des.tasks", "count");
    ("des.ns_per_task", "ns");
    ("des.overhead1", "ratio");
    ("des.handled_blocks", "count");
    ("des.dky_blocks", "count");
    ("des.virtual_units", "units");
    ("des.ns_per_unit", "ns");
    ("des.virtual_speedup8", "ratio");
    ("dom.tasks", "count");
    ("dom.ns_per_task", "ns");
    ("dom.speedup2", "ratio");
    ("dom.deadlocks", "count");
    ("cache.hash_ns", "ns");
    ("cache.probe_ns", "ns");
    ("cache.store_ns", "ns");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.evictions", "count");
    ("cache.bytes", "bytes");
    ("project.recompiled_share", "ratio");
    ("project.cutoffs", "count");
    ("project.reuse_units", "units");
    ("project.refresh_units", "units");
    ("serve.jobs", "count");
    ("serve.warm_share", "ratio");
    ("serve.shed", "count");
    ("serve.batches", "count");
    ("serve.sojourn_p50_vs", "vs");
    ("serve.sojourn_p99_vs", "vs");
    ("serve.ns_per_job", "ns");
    ("farm.closures", "count");
    ("farm.ns_per_closure", "ns");
    ("farm.fetches", "count");
    ("farm.steals", "count");
    ("farm.rpc_retries", "count");
    ("farm.makespan_vs", "vs");
    ("vm.steps", "count");
    ("vm.ns", "ns");
    ("stage.pass_ms", "ms");
    ("gc.peak_heap_mb", "MB");
    ("calib.ns_per_iter", "ns");
    ("stage.seq_ms", "ms");
    ("stage.split_ms", "ms");
    ("stage.des1_ms", "ms");
    ("stage.des8_ms", "ms");
    ("stage.dom1_ms", "ms");
    ("stage.dom2_ms", "ms");
    ("stage.cold_build_ms", "ms");
    ("stage.rebuild_p50_ms", "ms");
    ("stage.rebuild_p95_ms", "ms");
    ("stage.farm_ms", "ms");
    ("stage.serve_ms", "ms");
    ("trace.overhead_ms", "ms");
    ("trace.overhead_share", "ratio");
    ("trace.spans", "count");
    ("gate.checks", "count");
  ]

(* ---- statistics ------------------------------------------------------- *)

(* nearest-rank percentile of a sample list *)
let percentile p xs = Mcc_util.Quantile.(percentile p (sorted_of_list xs))
let median = percentile 50.0
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum_stages (acc : L.acc) = Hashtbl.fold (fun _ v s -> s +. v) acc.L.stages 0.0

(* [Gc] top heap; it moves with GC timing, by 15-25% between runs of one
   seed, so it is a per-layer metric without a bound *)
let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- output ----------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " m)

(* ---- runs ------------------------------------------------------------- *)

let dir = ".perfbench"

let time f =
  let t0 = Span.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Span.now ()) t0))

let run_pass (inp : W.inputs) =
  Gc.full_major ();
  let acc = L.make_acc () in
  inp.W.pass acc;
  L.addi acc "code_instrs" (Hashtbl.fold (fun _ n s -> s + n) acc.L.programs 0);
  acc

(* The counts that must repeat exactly on the same inputs.  The others
   ([cache.bytes], virtual sojourns, ...) are reported but not compared:
   marshaled artifact sizes, for one, depend on a process-wide uid
   counter. *)
let exact k =
  List.mem k
    [
      "lexer.tokens"; "emit.jobs"; "link.units"; "code_instrs"; "vm.steps"; "cache.hits";
      "cache.misses"; "project.modules"; "project.recompiled"; "project.cutoffs"; "farm.closures";
      "farm.fetches"; "farm.steals"; "serve.jobs"; "serve.warm";
    ]
  || List.exists (Filename.check_suffix k) [ ".tasks"; ".units" ]

let sorted_counts (acc : L.acc) =
  List.sort compare (List.filter (fun (k, _) -> exact k) (List.of_seq (Hashtbl.to_seq acc.L.counts)))

(* Exact counts must repeat on the same inputs. *)
let same_counts (first : L.acc) (acc : L.acc) =
  L.check "exact counts repeat between passes"
    (sorted_counts first = sorted_counts acc)
    (fun () ->
      let diff =
        List.filter (fun (k, v) -> L.get first.L.counts k <> v) (sorted_counts acc)
        |> List.map (fun (k, v) -> Printf.sprintf "%s %g vs %g" k (L.get first.L.counts k) v)
      in
      String.concat ", " diff)

(* Exact counts must also repeat between runs with the same seed.  The
   first run of an executable records the digest of its counts in
   .perfbench/; every later run of the same executable with the same
   workload and seed must find the same digest there. *)
let same_counts_across_runs name seed (acc : L.acc) =
  let text = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) (sorted_counts acc)) in
  let record = Digest.to_hex (Digest.file Sys.executable_name) ^ " " ^ Digest.to_hex (Digest.string text) in
  Printf.printf "counts %s seed=%d: %s\n" name seed record;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/counts-%s-%d" dir name seed in
  let previous = try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> "" in
  let exe = String.sub record 0 32 in
  if String.length previous > 32 && String.sub previous 0 32 = exe then
    L.check "exact counts repeat between runs with the same seed" (previous = record) (fun () ->
        Printf.sprintf "%s records %s, this run %s" path previous record)
  else Out_channel.with_open_text path (fun oc -> output_string oc record)

let untraced (w : W.t) ~seed ~seconds =
  (* one set-up before each pass, each from a collected heap, so that the
     set-ups sample the whole run; the passes all use the first inputs *)
  let set_up () =
    Gc.full_major ();
    let inp, t = time (fun () -> w.W.setup ~seed) in
    (inp, Calib.nominal_ns t)
  in
  let inp, t = set_up () in
  let setups = ref [ t ] in
  let budget = float_of_int seconds *. 1e9 in
  let t0 = Span.now () in
  let rec loop passes =
    let elapsed = Int64.to_float (Int64.sub (Span.now ()) t0) in
    if List.length passes >= 2 && elapsed >= budget then List.rev passes
    else begin
      let again, t = set_up () in
      L.check "the same seed generates the same inputs" (again.W.digest = inp.W.digest) (fun () ->
          "source digests differ between set-ups");
      setups := t :: !setups;
      loop (run_pass inp :: passes)
    end
  in
  let passes = loop [] in
  let first = List.hd passes in
  List.iter (same_counts first) (List.tl passes);
  same_counts_across_runs w.W.name seed first;
  let med f = median (List.map f passes) in
  Printf.printf "stage medians:%s\n"
    (String.concat ""
       (List.map
          (fun (k, _) ->
            let xs = List.map (fun a -> L.get a.L.stages k /. 1e6) passes in
            Printf.sprintf " %s=%.1fms(%.1f-%.1f)" k (median xs) (percentile 0.0 xs) (percentile 100.0 xs))
          (List.sort compare (List.of_seq (Hashtbl.to_seq first.L.stages)))));
  Printf.printf "calibration: %.1f ns per iteration\n" (Calib.ns_per_iter ());
  Printf.printf "passes %d: %s ms\n" (List.length passes)
    (String.concat " " (List.map (fun a -> Printf.sprintf "%.1f" (sum_stages a /. 1e6)) passes));
  [
    ("setup_s", "s", median !setups /. 1e9);
    ("pass_cal", "cal", Calib.to_cal (mean (List.map sum_stages passes)));
    ("alloc_mwords", "Mwords", med (fun a -> a.L.alloc_words) /. 1e6);
    ("code_instrs", "count", L.get first.L.counts "code_instrs");
  ]

(* What a traced run measured on one workload. *)
type measured = {
  workload : string;
  plain : L.acc list;  (** untraced passes *)
  last : L.acc;  (** the last traced pass *)
  spans : Span.t list;
  overhead : float;  (** traced / untraced pass time - 1, median over the pairs *)
}

(* Untraced and traced passes alternate until [budget] ns have passed;
   at least one pair is made.  Each traced pass runs right after an
   untraced one: comparing the two of a pair cancels most of the host's
   drift. *)
let measure (w : W.t) ~seed ~budget =
  let inp = w.W.setup ~seed in
  let t0 = Span.now () in
  let rec loop plain traced k =
    let elapsed = Int64.to_float (Int64.sub (Span.now ()) t0) in
    if traced <> [] && elapsed >= budget then (List.rev plain, List.rev traced)
    else begin
      let a = run_pass inp in
      Span.on := true;
      Span.round := k;
      let b = run_pass inp in
      Span.on := false;
      loop (a :: plain) (b :: traced) (k + 1)
    end
  in
  let plain, tr = loop [] [] 0 in
  let first = List.hd plain in
  List.iter (same_counts first) (List.tl plain @ tr);
  let overhead = median (List.map2 (fun a b -> (sum_stages b /. sum_stages a) -. 1.0) plain tr) in
  { workload = w.W.name; plain; last = List.hd (List.rev tr); spans = Span.take (); overhead }

let traced (w : W.t) ~seed ~seconds =
  let own = measure w ~seed ~budget:(float_of_int seconds *. 1e9) in
  same_counts_across_runs w.W.name seed (List.hd own.plain);
  let peak = peak_heap_mb () in
  (* Every per-layer metric must be a measurement, so a layer that this
     workload's pass does not call is measured on one pair of passes of
     the first other workload whose pass calls it. *)
  let others =
    List.filter_map (fun (o : W.t) -> if o == w then None else Some (measure o ~seed ~budget:0.0)) W.all
  in
  let on stage =
    List.find (fun m -> Hashtbl.mem (List.hd m.plain).L.stages stage) (own :: others)
  in
  (* each metric reads one measurement: a layer's counts from its last
     traced pass, stage times as medians over its untraced passes, self
     times from its spans *)
  let c m k = L.get m.last.L.counts k in
  let stage m k = median (List.map (fun a -> L.get a.L.stages k) m.plain) in
  let fe = on "split" and des = on "des1" and dom = on "dom1" and cache = on "cache.hash" in
  let proj = on "rebuild" and serve = on "serve" and farm = on "farm" and vm = on "vm" in
  let self_fe = Span.self_totals fe.spans and self_cache = Span.self_totals cache.spans in
  let ns_fe k = fst (self_fe k) and words_fe k = snd (self_fe k) and ns_cache k = fst (self_cache k) in
  let tokens = c fe "lexer.tokens" in
  let lat = List.concat_map (fun a -> a.L.lat_ms) proj.plain in
  let plain_ms = median (List.map sum_stages own.plain) /. 1e6 in
  let path = Printf.sprintf "%s/trace-%s-%d.json" dir w.W.name seed in
  let spans = Span.write path (List.map (fun m -> (m.workload, m.spans)) (own :: others)) in
  Printf.eprintf "perfbench: %d spans written to %s\n%!" spans path;
  let values =
    [
      ("lexer.tokens", tokens);
      ("lexer.ns_per_token", ratio (ns_fe "lexer") tokens);
      ("lexer.ns_per_unit", ratio (ns_fe "lexer") (c fe "lexer.units"));
      ("lexer.minor_words", words_fe "lexer");
      ("parse.ms", ns_fe "parse" /. 1e6);
      ("parse.ns_per_token", ratio (ns_fe "parse") tokens);
      ("parse.ns_per_unit", ratio (ns_fe "parse") (c fe "parse.units"));
      ("parse.minor_words", words_fe "parse");
      ("emit.jobs", c fe "emit.jobs");
      ("emit.ms", ns_fe "emit" /. 1e6);
      ("emit.ns_per_unit", ratio (ns_fe "emit") (c fe "emit.units"));
      ("emit.minor_words", words_fe "emit");
      ("link.units", c fe "link.units");
      ("link.ms", ns_fe "link" /. 1e6);
      ("des.tasks", c des "des1.tasks");
      ("des.ns_per_task", ratio (stage des "des1" -. stage des "seq") (c des "des1.tasks"));
      ("des.overhead1", ratio (stage des "des1") (stage des "seq"));
      ("des.handled_blocks", c des "des8.handled_blocks");
      ("des.dky_blocks", c des "des8.dky_blocks");
      ("des.virtual_units", c des "des1.units");
      ("des.ns_per_unit", ratio (stage des "des1") (c des "des1.units"));
      ("des.virtual_speedup8", ratio (c des "seq.units") (c des "des8.units"));
      ("dom.tasks", c dom "dom1.tasks");
      ("dom.ns_per_task", ratio (stage dom "dom1" -. stage dom "seq") (c dom "dom1.tasks"));
      ("dom.speedup2", ratio (stage dom "dom1") (stage dom "dom2"));
      (* a deadlocked domain run fails its check and ends the run *)
      ("dom.deadlocks", 0.0);
      ("cache.hash_ns", ratio (ns_cache "cache.hash") (c cache "cache.hash.calls"));
      ("cache.probe_ns", ratio (ns_cache "cache.probe") (c cache "cache.probe.calls"));
      ("cache.store_ns", ratio (ns_cache "cache.store") (c cache "cache.store.calls"));
      ("cache.hits", c cache "cache.hits");
      ("cache.misses", c cache "cache.misses");
      ("cache.evictions", c cache "cache.evictions");
      ("cache.bytes", c cache "cache.bytes");
      ("project.recompiled_share", ratio (c proj "project.recompiled") (c proj "project.modules"));
      ("project.cutoffs", c proj "project.cutoffs");
      ("project.reuse_units", c proj "project.reuse_units");
      ("project.refresh_units", c proj "project.refresh_units");
      ("serve.jobs", c serve "serve.jobs");
      ("serve.warm_share", ratio (c serve "serve.warm") (c serve "serve.served"));
      ("serve.shed", c serve "serve.shed");
      ("serve.batches", c serve "serve.batches");
      ("serve.sojourn_p50_vs", c serve "serve.sojourn_p50_vs");
      ("serve.sojourn_p99_vs", c serve "serve.sojourn_p99_vs");
      ("serve.ns_per_job", ratio (stage serve "serve") (c serve "serve.jobs"));
      ("farm.closures", c farm "farm.closures");
      (* a farm run compiles every closure, then assembles the program *)
      ("farm.ns_per_closure", ratio (stage farm "farm") (c farm "farm.closures" +. 1.0));
      ("farm.fetches", c farm "farm.fetches");
      ("farm.steals", c farm "farm.steals");
      ("farm.rpc_retries", c farm "farm.rpc_retries");
      ("farm.makespan_vs", c farm "farm.makespan_vs");
      ("vm.steps", c vm "vm.steps");
      ("vm.ns", stage vm "vm");
      ("stage.pass_ms", plain_ms);
      ("gc.peak_heap_mb", peak);
      ("calib.ns_per_iter", Calib.ns_per_iter ());
      ("stage.seq_ms", stage fe "seq" /. 1e6);
      ("stage.split_ms", stage fe "split" /. 1e6);
      ("stage.des1_ms", stage des "des1" /. 1e6);
      ("stage.des8_ms", stage des "des8" /. 1e6);
      ("stage.dom1_ms", stage dom "dom1" /. 1e6);
      ("stage.dom2_ms", stage dom "dom2" /. 1e6);
      ("stage.cold_build_ms", stage proj "cold_build" /. 1e6);
      ("stage.rebuild_p50_ms", median lat);
      ("stage.rebuild_p95_ms", percentile 95.0 lat);
      ("stage.farm_ms", stage farm "farm" /. 1e6);
      ("stage.serve_ms", stage serve "serve" /. 1e6);
      ("trace.overhead_ms", own.overhead *. plain_ms);
      ("trace.overhead_share", own.overhead);
      ("trace.spans", float_of_int spans);
      ("gate.checks", float_of_int !L.checks);
    ]
  in
  Printf.printf "trace %s seed=%d: %d pairs of passes, %.1f ms per untraced pass, tracing overhead %.1f%%\n"
    w.W.name seed (List.length own.plain) plain_ms (100.0 *. own.overhead);
  Printf.printf "layers measured on: lexer/parse/emit/link %s, des %s, dom %s, cache %s, project %s, serve %s, farm %s, vm %s\n"
    fe.workload des.workload dom.workload cache.workload proj.workload serve.workload farm.workload
    vm.workload;
  List.map (fun (n, u) -> (n, u, List.assoc n values)) per_layer

let run ~workload ~seed ~seconds ~trace =
  match List.find_opt (fun (w : W.t) -> w.W.name = workload) W.all with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
      exit 2
  | Some w -> (
      let outcome =
        try Ok (if trace then traced w ~seed ~seconds else untraced w ~seed ~seconds)
        with
        | L.Check_failed msg -> Error msg
        | Stack_overflow | Out_of_memory as e -> Error (Printexc.to_string e)
        | e -> Error ("uncaught exception: " ^ Printexc.to_string e)
      in
      match outcome with
      | Ok metrics -> print_result ~correct:true ~attempted:!L.checks ~failed:0 metrics
      | Error msg ->
          Printf.eprintf "perfbench: check failed on %s seed %d: %s\n%!" workload seed msg;
          print_result ~correct:false ~attempted:!L.checks ~failed:1 [];
          exit 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  suite | many-procs | edit | service");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  how long to repeat passes (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  report per-layer metrics from a traced run");
    ]
  in
  let usage = "bench --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage with
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2);
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline ("perfbench: --seconds must be at least 1 and --trace 0 or 1\n" ^ usage);
    exit 2
  end
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
