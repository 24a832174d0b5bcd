(* WatchTool: ASCII rendering of processor activity over time.

   Reproduces the paper's Figures 4 and 7 — "processor activity (vertical
   axis) as a function of time (horizontal axis)" with bars for the
   different kinds of compiler activity — from the span forest of a
   captured compile ([Mcc_obs.Dtrace]): its run and barrier-wait
   spans, each on its simulated processor.  Each processor is one row;
   each column is a time bucket painted with the character of the task
   class that was busiest in that bucket:

     L lexical analysis        S splitter        I importer
     d definition-module parse/declaration analysis
     M module parse/declaration analysis
     p procedure parse/declaration analysis
     G long-procedure statement analysis / code generation
     g short-procedure statement analysis / code generation
     m merge      . auxiliary      ~ barrier wait      (space) idle *)

open Mcc_sched
module Dtrace = Mcc_obs.Dtrace

(* The task classes in priority order and their display characters;
   the slot after them ('~') is a barrier wait. *)
let classes =
  Task.[ Lexor; Splitter; Importer; DefParse; ModParse; ProcParse; LongGen; ShortGen; Merge; Aux ]
let chars = "LSIdMpGgm.~"
let wait_slot = Task.n_classes

let legend =
  "L=lexor S=splitter I=importer d=defparse M=modparse p=procparse G=long-gen g=short-gen \
   m=merge ~=barrier-wait"

(* The processor-lane spans: (proc, t0, t1, slot). *)
let lanes (forest : Dtrace.t) =
  List.filter_map
    (fun (s : Dtrace.span) ->
      let slot =
        if s.Dtrace.d_kind <> "run" then wait_slot
        else
          Option.value ~default:(wait_slot - 1)
            (List.find_index (fun c -> Task.cls_name c = s.Dtrace.d_cls) classes)
      in
      if s.Dtrace.d_proc < 0 then None else Some (s.Dtrace.d_proc, s.Dtrace.d_t0, s.Dtrace.d_t1, slot))
    forest.Dtrace.spans

let horizon lanes = List.fold_left (fun acc (_, _, t1, _) -> Float.max acc t1) 0.0 lanes

(* Render the forest as one row per processor and [width] time buckets. *)
let render ?(width = 100) forest ~procs =
  let lanes = lanes forest in
  let horizon = horizon lanes in
  if horizon <= 0.0 then "(empty trace)"
  else begin
    (* per processor, per bucket: busy time per slot *)
    let buckets = Array.init procs (fun _ -> Array.make_matrix width (wait_slot + 1) 0.0) in
    let bucket_w = horizon /. float_of_int width in
    List.iter
      (fun (p, t0, t1, slot) ->
        if p < procs then begin
          let b0 = int_of_float (t0 /. bucket_w) in
          let b1 = min (width - 1) (int_of_float (t1 /. bucket_w)) in
          for b = max 0 b0 to b1 do
            let lo = float_of_int b *. bucket_w and hi = float_of_int (b + 1) *. bucket_w in
            let overlap = min hi t1 -. max lo t0 in
            if overlap > 0.0 then buckets.(p).(b).(slot) <- buckets.(p).(b).(slot) +. overlap
          done
        end)
      lanes;
    let buf = Buffer.create (procs * (width + 16)) in
    for p = 0 to procs - 1 do
      Buffer.add_string buf (Printf.sprintf "P%d |" p);
      for b = 0 to width - 1 do
        let best = ref (-1) and best_t = ref 0.0 in
        Array.iteri
          (fun i t ->
            if t > !best_t then begin
              best := i;
              best_t := t
            end)
          buckets.(p).(b);
        Buffer.add_char buf (if !best < 0 || !best_t < bucket_w *. 0.05 then ' ' else chars.[!best])
      done;
      Buffer.add_string buf "|\n"
    done;
    Buffer.add_string buf
      (Printf.sprintf "    0%s%.2fs (virtual)\n"
         (String.make (max 1 (width - 14)) '-')
         (Costs.to_seconds horizon));
    Buffer.contents buf
  end

(* Mean processor utilization over the lanes' horizon, in [0, 1]. *)
let utilization forest ~procs =
  let lanes = lanes forest in
  let horizon = horizon lanes in
  if horizon <= 0.0 then 0.0
  else begin
    let busy = Array.make procs 0.0 in
    List.iter
      (fun (p, t0, t1, slot) -> if slot < wait_slot && p < procs then busy.(p) <- busy.(p) +. (t1 -. t0))
      lanes;
    Array.fold_left ( +. ) 0.0 busy /. (horizon *. float_of_int procs)
  end

(* Utilization summary line with a per-phase busy-share breakdown. *)
let summary forest ~procs =
  let util = utilization forest ~procs in
  let per_class = Array.make wait_slot 0.0 in
  List.iter
    (fun (_, t0, t1, slot) -> if slot < wait_slot then per_class.(slot) <- per_class.(slot) +. (t1 -. t0))
    (lanes forest);
  let total = Array.fold_left ( +. ) 0.0 per_class in
  let share slots =
    List.fold_left
      (fun acc i -> acc +. if total <= 0.0 then 0.0 else 100.0 *. per_class.(i) /. total)
      0.0 slots
  in
  Printf.sprintf
    "utilization %.1f%%  (lex %.1f%%, split %.1f%%, import %.1f%%, parse/decl %.1f%%, stmt/gen %.1f%%, merge %.1f%%)"
    (100.0 *. util) (share [ 0 ]) (share [ 1 ]) (share [ 2 ]) (share [ 3; 4; 5 ]) (share [ 6; 7 ])
    (share [ 8 ])
