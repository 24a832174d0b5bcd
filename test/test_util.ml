(* Unit and property tests for the utility substrate. *)

open Mcc_util

let test_vec_basic () =
  let v = Vec.create 0 in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.(check int) "fold" (List.fold_left ( + ) 0 (Vec.to_list v)) (Vec.fold ( + ) 0 v)

let test_vec_bounds () =
  let v = Vec.create 0 in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v);
      ignore (Vec.pop v))

let test_vec_sort () =
  let v = Vec.of_list 0 [ 5; 1; 4; 2; 3 ] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (Vec.to_list v)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let child = Prng.split a in
  let again = Prng.create 7 in
  let _child2 = Prng.split again in
  (* drawing from the child must not perturb determinism of the parent *)
  for _ = 1 to 10 do
    ignore (Prng.int child 100)
  done;
  Alcotest.(check int) "parent stream unaffected by child draws" (Prng.int a 1_000_000)
    (Prng.int again 1_000_000)

let test_prng_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.range rng 5 9 in
    if v < 5 || v > 9 then Alcotest.failf "range out of bounds: %d" v
  done

let test_prng_weighted () =
  let rng = Prng.create 11 in
  for _ = 1 to 200 do
    let v = Prng.weighted rng [ (1, `A); (0, `B) ] in
    Alcotest.(check bool) "zero weight never drawn" true (v = `A)
  done

let test_heap_order () =
  let h = Heap.create (-1) in
  List.iter (fun (k, v) -> Heap.push h k v) [ (3.0, 3); (1.0, 1); (2.0, 2); (1.0, 10) ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  (* ties pop in insertion order: 1 before 10 *)
  Alcotest.(check (list int)) "min-heap order with stable ties" [ 1; 10; 2; 3 ] (List.rev !order)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let h = Heap.create 0 in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      List.sort compare keys = popped)

(* Caller-supplied tie-breaks: equal keys pop in ascending [seq], so
   negative seqs (the Supervisor's front-pushes) come before positive
   ones (its back-pushes); a smaller key still wins over any seq. *)
let test_heap_seq_tiebreak () =
  let h = Heap.create "" in
  List.iter
    (fun (seq, k, v) -> Heap.push ~seq h k v)
    [ (0, 0.0, "b0"); (1, 0.0, "b1"); (-1, 0.0, "f1"); (2, -1.0, "big"); (-2, 0.0, "f2") ];
  let rec drain acc = match Heap.pop h with Some (_, v) -> drain (v :: acc) | None -> List.rev acc in
  Alcotest.(check (list string)) "key, then seq" [ "big"; "f2"; "f1"; "b0"; "b1" ] (drain [])

(* The Supervisor's ready queue in miniature: pushing to the back with
   seqs 0, 1, 2, ... and to the front with -1, -2, ... drains exactly
   like a double-ended queue built by the same pushes, stable-sorted by
   key. *)
let prop_heap_front_back =
  QCheck.Test.make ~name:"heap with front/back seqs = stable-sorted deque" ~count:300
    QCheck.(list (pair (int_bound 3) bool))
    (fun ops ->
      let h = Heap.create 0 in
      let back = ref 0 and front = ref 0 and deque = ref [] in
      List.iteri
        (fun v (k, to_front) ->
          let key = float_of_int k in
          if to_front then begin
            decr front;
            Heap.push ~seq:!front h key v;
            deque := (key, v) :: !deque
          end
          else begin
            Heap.push ~seq:!back h key v;
            incr back;
            deque := !deque @ [ (key, v) ]
          end)
        ops;
      let rec drain acc = match Heap.pop h with Some e -> drain (e :: acc) | None -> List.rev acc in
      drain [] = List.stable_sort (fun (a, _) (b, _) -> compare a b) !deque)

(* Heap against stable sort: equal keys must drain in insertion order
   (the property that makes simulated schedules reproducible). *)
let prop_heap_stable_drain =
  QCheck.Test.make ~name:"heap drain = stable sort by key" ~count:300
    QCheck.(list (int_bound 5))
    (fun keys ->
      let h = Heap.create 0 in
      let entries = List.mapi (fun i k -> (float_of_int k, i)) keys in
      List.iter (fun (k, v) -> Heap.push h k v) entries;
      let rec drain acc =
        match Heap.pop h with Some (k, v) -> drain ((k, v) :: acc) | None -> List.rev acc
      in
      drain [] = List.stable_sort (fun (a, _) (b, _) -> compare a b) entries)

(* Split streams are independent: draws from the child do not disturb
   the parent's sequence, for arbitrary seeds. *)
let prop_prng_split_independent =
  QCheck.Test.make ~name:"prng split independence" ~count:200 QCheck.small_nat (fun seed ->
      let undisturbed =
        let g = Prng.create seed in
        ignore (Prng.split g);
        List.init 16 (fun _ -> Prng.int g 1_000_000)
      in
      let disturbed =
        let g = Prng.create seed in
        let child = Prng.split g in
        ignore (List.init 64 (fun _ -> Prng.int child 1_000_000));
        List.init 16 (fun _ -> Prng.int g 1_000_000)
      in
      let child_draws s =
        let g = Prng.create s in
        let c = Prng.split g in
        List.init 16 (fun _ -> Prng.int c 1_000_000)
      in
      undisturbed = disturbed && child_draws seed <> undisturbed)

let test_quantile_edges () =
  (* empty: every statistic is 0 rather than an exception *)
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Quantile.percentile 95.0 [||]);
  let mean, p50, p95, p99, maxv = Quantile.summarize [] in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 mean;
  Alcotest.(check (float 0.0)) "empty p50" 0.0 p50;
  Alcotest.(check (float 0.0)) "empty p95" 0.0 p95;
  Alcotest.(check (float 0.0)) "empty p99" 0.0 p99;
  Alcotest.(check (float 0.0)) "empty max" 0.0 maxv;
  (* single element: every percentile is that element *)
  let one = Quantile.sorted_of_list [ 7.5 ] in
  Alcotest.(check (float 0.0)) "single p1" 7.5 (Quantile.percentile 1.0 one);
  Alcotest.(check (float 0.0)) "single p50" 7.5 (Quantile.percentile 50.0 one);
  Alcotest.(check (float 0.0)) "single p100" 7.5 (Quantile.percentile 100.0 one);
  let mean1, p50_1, _, _, max1 = Quantile.summarize [ 7.5 ] in
  Alcotest.(check (float 0.0)) "single mean" 7.5 mean1;
  Alcotest.(check (float 0.0)) "single summarize p50" 7.5 p50_1;
  Alcotest.(check (float 0.0)) "single summarize max" 7.5 max1

let test_quantile_exact_rank () =
  (* nearest-rank on 10 sorted samples: rank = ceil(p/100 * 10), so p50
     is the 5th element, p90 the 9th, p91..p100 the 10th — values that
     actually occurred, never interpolations. *)
  let sorted = Quantile.sorted_of_list (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "p10 = 1st" 1.0 (Quantile.percentile 10.0 sorted);
  Alcotest.(check (float 0.0)) "p50 = 5th" 5.0 (Quantile.percentile 50.0 sorted);
  Alcotest.(check (float 0.0)) "p90 = 9th" 9.0 (Quantile.percentile 90.0 sorted);
  Alcotest.(check (float 0.0)) "p91 = 10th" 10.0 (Quantile.percentile 91.0 sorted);
  Alcotest.(check (float 0.0)) "p100 = max" 10.0 (Quantile.percentile 100.0 sorted);
  (* sorted_of_list actually sorts *)
  let s = Quantile.sorted_of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 0.0)) "unsorted input, p100" 3.0 (Quantile.percentile 100.0 s);
  Alcotest.(check (float 0.0)) "unsorted input, p33" 1.0 (Quantile.percentile 33.0 s);
  let mean, p50, p95, p99, maxv = Quantile.summarize (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "mean of 1..100" 50.5 mean;
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 p50;
  Alcotest.(check (float 0.0)) "p95 of 1..100" 95.0 p95;
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 p99;
  Alcotest.(check (float 0.0)) "max of 1..100" 100.0 maxv

let test_tablefmt () =
  let s = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains separator" true (Tutil.contains ~sub:"|-" s);
  Alcotest.(check string) "grouped" "1,234,567" (Tablefmt.grouped 1234567);
  Alcotest.(check string) "grouped small" "999" (Tablefmt.grouped 999);
  Alcotest.(check string) "percent" "50.00" (Tablefmt.percent 1 2);
  Alcotest.(check string) "fixed" "3.14" (Tablefmt.fixed 3.14159)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "sort" `Quick test_vec_sort;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "range bounds" `Quick test_prng_range;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Tutil.qtest prop_prng_split_independent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Tutil.qtest prop_heap_sorts;
          Tutil.qtest prop_heap_stable_drain;
          Alcotest.test_case "caller seq tie-break" `Quick test_heap_seq_tiebreak;
          Tutil.qtest prop_heap_front_back;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "edges" `Quick test_quantile_edges;
          Alcotest.test_case "exact rank" `Quick test_quantile_exact_rank;
        ] );
      ("tablefmt", [ Alcotest.test_case "render" `Quick test_tablefmt ]);
    ]
