(* The sharded build farm: fault-injected conformance against the
   sequential oracle, the exactly-once tracker property, the fault-plan
   wire format, same-seed determinism, and the happens-before farm
   invariants over a captured node/RPC lifecycle log. *)

open Mcc_farm
module Fault = Mcc_sched.Fault
module Prng = Mcc_util.Prng
module Observation = Mcc_check.Observation
module Hb = Mcc_analysis.Hb

(* Suite rank 3: a couple of virtual seconds sequential, five definition
   modules — enough closures to shard over three nodes, small enough to
   keep the fault matrix quick. *)
let store = lazy (Mcc_synth.Suite.program 3)

let run ?(capture = false) ?(nodes = 3) ?(faults = "") () =
  let cfg =
    { Farm.default_config with Farm.nodes; faults = Fault.parse_list faults }
  in
  Farm.run ~capture cfg (Lazy.force store)

let check_verify r =
  match Farm.verify (Lazy.force store) r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- sharding ------------------------------------------------------ *)

let test_assign_policies () =
  let ifaces = List.init 12 (fun i -> (Printf.sprintf "I%02d" i, 100 * (i + 1))) in
  let h = Shard.assign Shard.Hash ~nodes:3 ifaces in
  Alcotest.(check (list string)) "input order preserved" (List.map fst ifaces) (List.map fst h);
  List.iter (fun (_, n) -> Alcotest.(check bool) "node in range" true (n >= 0 && n < 3)) h;
  Alcotest.(check bool) "hash placement is stable" true (h = Shard.assign Shard.Hash ~nodes:3 ifaces);
  let s = Shard.assign Shard.Size ~nodes:3 ifaces in
  let load p =
    List.fold_left
      (fun acc ((_, b), (_, n)) -> if n = p then acc + b else acc)
      0 (List.combine ifaces s)
  in
  let loads = List.init 3 load in
  let mx = List.fold_left max 0 loads and mn = List.fold_left min max_int loads in
  Alcotest.(check bool) "LPT balance within the biggest item" true (mx - mn <= 1200)

(* The exactly-once tracker under arbitrary claim / steal / complete /
   crash+reshard interleavings: no closure completes twice, stale
   completions from crashed claim holders are rejected, and as long as
   one node survives every closure still completes exactly once. *)
let prop_steal_never_duplicates =
  QCheck.Test.make ~name:"tracker: random interleavings never lose or duplicate a closure"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (0xfa43 + seed) in
      let nodes = 2 + Prng.int rng 3 in
      let n = 3 + Prng.int rng 14 in
      let names = List.init n (Printf.sprintf "I%02d") in
      (* random DAG: each closure imports a random subset of earlier ones *)
      let deps_tbl = Hashtbl.create 16 in
      List.iteri
        (fun i name ->
          Hashtbl.replace deps_tbl name
            (List.filteri (fun j _ -> j < i && Prng.chance rng 0.35) names))
        names;
      let assignment =
        Shard.assign
          (if Prng.bool rng then Shard.Hash else Shard.Size)
          ~nodes
          (List.map (fun nm -> (nm, 50 + Prng.int rng 400)) names)
      in
      let t = Shard.create ~nodes ~assignment ~topo:names ~deps:(Hashtbl.find deps_tbl) in
      let alive = Array.make nodes true in
      let alive_list () = List.filter (fun i -> alive.(i)) (List.init nodes Fun.id) in
      let done_count = Hashtbl.create 16 in
      let record iface =
        Hashtbl.replace done_count iface (1 + Option.value ~default:0 (Hashtbl.find_opt done_count iface))
      in
      let running = ref [] (* (node, iface) claims not yet completed *) in
      let ok = ref true in
      let claim node =
        match Shard.next t ~node ~steal:true ~may_steal_from:(fun v -> alive.(v)) with
        | Some (`Own iface) | Some (`Stolen (iface, _)) -> running := (node, iface) :: !running
        | None -> ()
      in
      let complete_nth k =
        let node, iface = List.nth !running k in
        running := List.filteri (fun i _ -> i <> k) !running;
        let accepted = Shard.complete t ~node iface in
        if alive.(node) then begin
          if accepted then record iface else ok := false
        end
        else if accepted then ok := false (* stale claim from a crashed node *)
      in
      let steps = ref 0 in
      while (not (Shard.all_done t)) && !steps < 2_000 && !ok do
        incr steps;
        let c = Prng.int rng 100 in
        if c < 8 && List.length (alive_list ()) > 1 then begin
          let dead = Prng.choose rng (alive_list ()) in
          alive.(dead) <- false;
          ignore (Shard.reshard t ~dead ~survivors:(alive_list ()))
        end
        else if c < 55 || !running = [] then claim (Prng.choose rng (alive_list ()))
        else complete_nth (Prng.int rng (List.length !running))
      done;
      (* drive whatever is left to completion on the survivors *)
      let guard = ref 0 in
      while (not (Shard.all_done t)) && !guard < 10_000 && !ok do
        incr guard;
        (match !running with
        | [] -> ()
        | (node, _) :: _ when alive.(node) -> complete_nth 0
        | _ :: _ -> complete_nth 0 (* stale entry; complete_nth checks it *));
        if !running = [] then List.iter claim (alive_list ())
      done;
      if not (Shard.all_done t) then ok := false;
      List.iter
        (fun nm -> if Hashtbl.find_opt done_count nm <> Some 1 then ok := false)
        names;
      !ok)

(* --- the fault-plan wire format ------------------------------------ *)

(* A fixed consult script touching every farm site family plus an inner
   compile site; the plan's observable behaviour is the bool sequence it
   produces over this script. *)
let firing_script () =
  let out = ref [] in
  for _ = 0 to 7 do
    List.iter
      (fun n ->
        out := Fault.node_crash ~name:n :: !out;
        out := Fault.node_slow ~name:n :: !out)
      [ "node0"; "node1"; "node2" ];
    out := Fault.partition ~name:"net" :: !out;
    out := Fault.msg_drop ~link:"node0->node1:I0" :: !out;
    out := Fault.crash ~name:"t" ~cls:"parse" :: !out;
    out := Fault.corrupt_artifact ~name:"I0" :: !out
  done;
  List.rev !out

let random_spec rng =
  let kind = Prng.choose rng Fault.all_kinds in
  let at = if Prng.chance rng 0.5 then Some (1 + Prng.int rng 5) else None in
  {
    Fault.kind;
    target =
      (if Prng.chance rng 0.4 then
         Some (Prng.choose rng [ "node0"; "node1"; "node2"; "net"; "I0" ])
       else None);
    at;
    rate = (if at = None && Prng.chance rng 0.6 then Some (10 + Prng.int rng 90) else None);
    permanent = Prng.chance rng 0.25;
  }

let prop_plan_wire_roundtrip =
  QCheck.Test.make ~name:"fault plan: wire round trip replays the identical schedule"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (0x9147 + seed) in
      let specs = List.init (1 + Prng.int rng 4) (fun _ -> random_spec rng) in
      let plan_seed = Prng.int rng 10_000 in
      let fresh () = Fault.plan ~seed:plan_seed specs in
      let replay p = Fault.with_plan p firing_script in
      let reference = replay (fresh ()) in
      (* a pristine plan survives the round trip *)
      let a = replay (Fault.of_bytes (Fault.to_bytes (fresh ()))) in
      (* serializing MID-replay still ships the schedule, not the replay
         cursor: the deserialized plan replays from the beginning *)
      let consumed = fresh () in
      Fault.with_plan consumed (fun () ->
          for _ = 1 to 1 + Prng.int rng 30 do
            ignore (Fault.node_crash ~name:"node1")
          done);
      let b = replay (Fault.of_bytes (Fault.to_bytes consumed)) in
      a = reference && b = reference)

(* --- farm runs under injected faults ------------------------------- *)

let test_fault_free () =
  let r = run () in
  Alcotest.(check bool) "compiled ok" true r.Farm.f_ok;
  Alcotest.(check bool) "no sequential fallback" false r.Farm.f_seq_fallback;
  Alcotest.(check bool) "work was sharded" true (r.Farm.f_tasks > 0);
  check_verify r

let test_crash_reshards () =
  let r = run ~faults:"node-crash:node1@1" () in
  Alcotest.(check int) "one crash" 1 r.Farm.f_crashes;
  Alcotest.(check bool) "death detected" true (r.Farm.f_detects >= 1);
  Alcotest.(check bool) "closures re-sharded" true (r.Farm.f_reshards > 0);
  Alcotest.(check bool) "survivors converged" false r.Farm.f_seq_fallback;
  check_verify r

let test_total_loss_falls_back () =
  let r = run ~nodes:2 ~faults:"node-crash:node0@1,node-crash:node1@1" () in
  Alcotest.(check int) "both nodes died" 2 r.Farm.f_crashes;
  Alcotest.(check bool) "sequential fallback" true r.Farm.f_seq_fallback;
  check_verify r

let test_partition_heals () =
  let r = run ~faults:"partition@1" () in
  Alcotest.(check bool) "partition fired" true (r.Farm.f_partitions >= 1);
  Alcotest.(check bool) "farm converged after heal" false r.Farm.f_seq_fallback;
  check_verify r

let test_gray_node_trips_hedge () =
  let r = run ~faults:"node-slow:node1!" () in
  Alcotest.(check bool) "gray failure armed" true (r.Farm.f_slow_nodes >= 1);
  Alcotest.(check bool) "hedged fetches fired" true (r.Farm.f_hedges >= 1);
  check_verify r

(* At 90% loss the first attempt and the hedge are both lost and a
   primary retry serves the artifact.  At 60% the hedge answers first,
   which cancels the primary's retry loop: no retry is counted. *)
let test_msg_drops_retry () =
  let r = run ~faults:"msg-drop%90" () in
  Alcotest.(check bool) "attempts were lost" true (r.Farm.f_rpc_drops > 0);
  Alcotest.(check bool) "retries recovered" true (r.Farm.f_rpc_retries > 0);
  check_verify r;
  let r = run ~faults:"msg-drop%60" () in
  Alcotest.(check bool) "hedge won" true (r.Farm.f_hedge_wins > 0);
  Alcotest.(check int) "no retry after the hedge answered" 0 r.Farm.f_rpc_retries;
  check_verify r

let proj (r : Farm.report) =
  ( r.Farm.f_makespan,
    r.Farm.f_tasks,
    r.Farm.f_fetches,
    r.Farm.f_serves,
    r.Farm.f_rpc_retries,
    r.Farm.f_hedges,
    r.Farm.f_hedge_wins,
    r.Farm.f_steals,
    r.Farm.f_reshards,
    r.Farm.f_crashes )

let test_same_seed_identical () =
  let faults = "node-crash:node1@1,msg-drop%20" in
  let r1 = run ~faults () and r2 = run ~faults () in
  Alcotest.(check bool) "identical counters and makespan" true (proj r1 = proj r2);
  Alcotest.(check bool) "identical observations" true
    (Observation.first_diff ~reference:r1.Farm.f_obs r2.Farm.f_obs = None)

(* The captured farm logs satisfy the Hb farm invariants: every serve
   pairs with a fetch, no sharded closure is lost after a crash, and
   none completes twice.  Two captures because the scenarios differ: a
   fault-free run exercises the fetch/serve pairing (the crash run has
   none — the survivors' probe compiles cover the chain locally), the
   crash run exercises loss-after-death. *)
let hb_clean r =
  let h = Hb.check r.Farm.f_events in
  if not (Hb.ok h) then
    Alcotest.failf "hb violations:\n%s"
      (String.concat "\n" (List.map Hb.violation_to_string h.Hb.violations));
  h

let test_hb_farm_invariants () =
  let r = run ~capture:true () in
  let h = hb_clean r in
  Alcotest.(check int) "every sharded closure completed once" r.Farm.f_tasks h.Hb.n_farm_done;
  Alcotest.(check bool) "fetch/serve pairs logged" true (h.Hb.n_fetches > 0 && h.Hb.n_serves > 0);
  let r = run ~capture:true ~faults:"node-crash:node1@1" () in
  Alcotest.(check bool) "converged" false r.Farm.f_seq_fallback;
  let h = hb_clean r in
  Alcotest.(check int) "no closure lost to the crash" r.Farm.f_tasks h.Hb.n_farm_done;
  Alcotest.(check bool) "node death logged" true (h.Hb.n_node_deaths >= 1);
  Alcotest.(check bool) "re-shards logged" true (h.Hb.n_reshards > 0)

let () =
  Alcotest.run "farm"
    [
      ( "shard",
        [
          Alcotest.test_case "assign policies" `Quick test_assign_policies;
          Tutil.qtest prop_steal_never_duplicates;
        ] );
      ("fault-wire", [ Tutil.qtest prop_plan_wire_roundtrip ]);
      ( "farm",
        [
          Alcotest.test_case "fault free conformance" `Quick test_fault_free;
          Alcotest.test_case "node crash re-shards" `Quick test_crash_reshards;
          Alcotest.test_case "total loss sequential fallback" `Quick test_total_loss_falls_back;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "gray node trips hedge" `Quick test_gray_node_trips_hedge;
          Alcotest.test_case "msg drops retry" `Quick test_msg_drops_retry;
          Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
          Alcotest.test_case "hb farm invariants" `Quick test_hb_farm_invariants;
        ] );
    ]
