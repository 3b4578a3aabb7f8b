(* Attribution self-test: the benchmark's [Measure.categories] applied to
   the §5.5 two-node SIGNAL stream must reproduce [bench/main.exe T2] —
   the same six category values, 7.21 ms accounted and 2.00 packets per
   SIGNAL — so the record and the paper table share one attribution.

   The stream is [Workloads.stream ~op:Signal ~words:0] rebuilt with the
   same seed, cost model, server program and client loop; only the
   attribution differs (here: [Measure.categories] over both kernels,
   snapshotted at the warm-up and final completions). *)

module Cost = Soda_base.Cost_model
module Network = Soda_core.Network
module Sodal = Soda_runtime.Sodal

let n = 40
let warmup = 8
let outstanding = 3

let attributed () =
  let net = Network.create ~seed:271 ~cost:Cost.default () in
  let server = Network.add_node net ~mid:0 in
  let client = Network.add_node net ~mid:1 in
  ignore (Sodal.attach server (Workloads.server_spec ~mode:Workloads.In_handler ~words:0));
  let kernels = [ server; client ] in
  let completions = ref 0 in
  let warm = ref ([], 0) and fin = ref ([], 0) in
  let snapshot () = (Measure.categories kernels, Measure.frames net) in
  ignore
    (Sodal.attach client
       {
         Sodal.default_spec with
         on_completion =
           (fun _ _ ->
             incr completions;
             if !completions = warmup then warm := snapshot ();
             if !completions = n then fin := snapshot ());
         task =
           (fun env ->
             let sv = Sodal.server ~mid:0 ~pattern:Workloads.patt in
             let issued = ref 0 in
             while !completions < n do
               while !issued < n && !issued - !completions < outstanding do
                 (try
                    ignore (Sodal.exchange env sv ~arg:0 Bytes.empty ~into:Bytes.empty);
                    incr issued
                  with Sodal.Too_many_requests -> Sodal.compute env 1000)
               done;
               Sodal.idle env
             done;
             Sodal.serve env);
       });
  ignore (Network.run ~until:1_200_000_000 net);
  let (c0, f0), (c1, f1) = (!warm, !fin) in
  let measured = float_of_int (n - warmup) in
  let per_op =
    List.map2
      (fun (c, e) (_, w) -> (c, float_of_int (e - w) /. measured /. 1000.0))
      c1 c0
  in
  (per_op, float_of_int (f1 - f0) /. measured)

type verdict = {
  categories : (Cost.category * float) list;
  accounted_ms : float;
  pkts_per_signal : float;
  result : (unit, string) result;
}

let run () =
  let categories, pkts = attributed () in
  let reference = Workloads.stream ~op:Workloads.Signal ~words:0 () in
  let accounted = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 categories in
  let result =
    if categories <> reference.Workloads.breakdown_ms then
      Error "category values differ from the T2 stream's breakdown"
    else if Printf.sprintf "%.2f" accounted <> "7.21" then
      Error (Printf.sprintf "%.2f ms accounted, T2 gives 7.21" accounted)
    else if Printf.sprintf "%.2f" pkts <> "2.00" then
      Error (Printf.sprintf "%.2f pkts/SIGNAL, T2 gives 2.00" pkts)
    else Ok ()
  in
  { categories; accounted_ms = accounted; pkts_per_signal = pkts; result }
