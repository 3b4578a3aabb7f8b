(* The repository benchmark.

   One workload:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
   builds NAME's inputs from seed N, then runs its simulations (one per
   instance, pooled) over and over for S seconds of wall time with
   tracing off, and reports medians. With --trace 1 it then runs the
   same simulations once more traced, checks that every
   virtual-time metric is unchanged, derives the per-layer numbers the
   event stream gives and writes the run's spans to perfbench/_out/.
   Every check runs outside the timed region. The last line of stdout is
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   with the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1). The exit code is 1 when a check fails.

   Every workload, with a record:
     bench.exe --report [--seconds S] [--seed N]
   runs each workload as --trace 1 does, prints every metric, then
   re-runs each workload's simulation once on each of [spread_seeds]
   for the cross-seed spread of its virtual-time metrics, and writes
   perfbench/record.json.

   Two clocks: virtual-time metrics are a pure function of the seed; wall
   time is read with [Unix.gettimeofday], the clock [Engine.wall_seconds]
   uses. [sim_wall_s] is the median over the repeated runs;
   [sim_wall_rel] is the median of each run's wall time over that of a
   frozen reference loop timed just before it (see [reference_loop]);
   [setup_s] is set-up time in reference seconds (see [measure_setup]). *)

module Engine = Soda_sim.Engine
module Network = Soda_core.Network
module Cost = Soda_base.Cost_model
module W = Workload
module M = Measure

let out_dir = Filename.concat "perfbench" "_out"

(* ---- runs ---------------------------------------------------------------------- *)

type run = {
  workload : W.t;
  seed : int;
  passes : int;
  setup_s : float;  (** median, in reference seconds *)
  sim_wall_s : float;  (** median *)
  sim_wall_rel : float;  (** median of each pass's wall time over [reference_loop]'s *)
  peak_heap_mb : float;  (** of one instance, alone in its process *)
  virtual_ : M.metric list;
  latency : M.latency;
  attempted : int;
  ok : int;
  layers : M.metric list;
  checks : (string * (unit, string) result) list;
  traced : (Traced.t * float) option;  (** analysis, traced sim_wall_s *)
}

(* A frozen reference computation the repository's code never touches:
   a small discrete-event loop (a map as the event queue, a hash table
   as the state, short-lived allocation), ~15 ms. On a shared machine
   the same pass takes anywhere from 0.8x to 1.6x its usual time as the
   neighbours' load drifts over minutes; this loop, timed just before
   each instance, drifts with it, so [sim_wall_rel] (a pass's wall time
   over its loops') holds where [sim_wall_s] does not. The loop runs
   under the GC settings the process started with, whatever the
   simulator's libraries set since, so that it stays a fixed yardstick
   and a GC tuning in the program shows in the ratio. *)
module Ref_queue = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let startup_gc = Gc.get ()

let reference_loop () =
  let current = Gc.get () in
  if current <> startup_gc then Gc.set startup_gc;
  let t0 = Unix.gettimeofday () in
  let rng = Random.State.make [| 7 |] in
  let state = Hashtbl.create 4096 in
  let queue = ref Ref_queue.empty and seq = ref 0 and fired = ref 0 in
  let push t =
    incr seq;
    queue := Ref_queue.add (t, !seq) (Random.State.int rng 4096) !queue
  in
  for _ = 1 to 64 do
    push (Random.State.int rng 1000)
  done;
  while !fired < 20_000 do
    let ((t, _) as k), key = Ref_queue.min_binding !queue in
    queue := Ref_queue.remove k !queue;
    incr fired;
    let recent = Option.value (Hashtbl.find_opt state key) ~default:[] in
    Hashtbl.replace state key (t :: (match recent with _ :: _ :: rest -> rest | l -> l));
    push (t + 1 + Random.State.int rng 1000)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if current <> startup_gc then Gc.set current;
  dt

(* The reference loop's time on the machine the bounds were set on
   (2-core x86-64 VM, OCaml 5.1.1). [setup_s] is set-up time scaled by
   this over the loop's measured time: seconds as they would read on
   that machine, so a change in the neighbours' load cancels out. *)
let reference_loop_nominal_s = 0.015

(* One timed pass: for each instance a clean heap, the reference loop,
   then set-up and the simulation. Wall and reference times sum over the
   instances. The loop runs at least 16 times a pass: fewer, and its own
   noise shows in [sim_wall_rel]. *)
let pass setups =
  let loops = (16 + List.length setups - 1) / List.length setups in
  List.fold_left
    (fun (wall_s, ref_s, os) setup ->
      Gc.full_major ();
      let r = ref 0.0 in
      for _ = 1 to loops do
        r := !r +. reference_loop ()
      done;
      let o = (setup ~trace:false) () in
      (wall_s +. Engine.wall_seconds (Network.engine o.W.net), ref_s +. !r, o :: os))
    (0.0, 0.0, []) setups
  |> fun (w, r, os) -> (w, r, List.rev os)

let set_up setup = match setup ~trace:false with (_ : unit -> W.outcome) -> ()

(* Set-up times, [reps] set-ups of every instance at a time (networks
   built and dropped unrun), each batch after a clean heap and a
   reference loop: the time to set up all instances once, per batch, in
   reference seconds. [reps] makes a batch about [setup_batch_s] long. *)
let setup_batch_s = 0.05
let setup_batches = 8

let measure_setup setups ~reps ~batches =
  List.init batches (fun _ ->
      Gc.full_major ();
      let r = reference_loop () in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        List.iter set_up setups
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int reps /. r *. reference_loop_nominal_s)

(* Run [f] in a child process and return its result. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (f ()) [];
    close_out oc;
    flush_all ();
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v = Marshal.from_channel ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    v

(* The heap high-water of one instance (set-up and run) in a child
   forked before the benchmark builds anything, so that neither the
   other instances nor the timed passes count in it. *)
let peak_heap_mb (w : W.t) ~seed =
  in_child (fun () ->
      ignore (Sys.opaque_identity ((w.prepare ~seed ~trace:false) ()));
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
      /. 1048576.0)

(* The traced run, one instance at a time so each instance's events can
   go once they are read. *)
let traced_pass setups =
  let acc = Traced.create () in
  let wall, virtuals =
    List.fold_left
      (fun (wall, virtuals) setup ->
        let o = (setup ~trace:true) () in
        Traced.add acc o;
        Soda_obs.Recorder.clear (Network.recorder o.W.net);
        Gc.full_major ();
        (wall +. Engine.wall_seconds (Network.engine o.W.net), o :: virtuals))
      (0.0, []) setups
  in
  (acc, wall, fst (M.virtual_metrics (List.rev virtuals)))

let run_workload (w : W.t) ~seed ~seconds ~trace =
  let peak_heap_mb = peak_heap_mb w ~seed in
  (* inputs: made from the seed once, outside every timed region *)
  let setups = List.map (fun s -> w.prepare ~seed:s) (W.instance_seeds w seed) in
  (* one untimed run of the first instance warms caches and lazy set-up;
     the first timed pass fixes the virtual-time metrics every later
     pass must reproduce *)
  ignore (pass [ List.hd setups ]);
  let reps =
    let t0 = Unix.gettimeofday () in
    List.iter set_up setups;
    max 1 (int_of_float (Float.ceil (setup_batch_s /. (Unix.gettimeofday () -. t0))))
  in
  let reference = ref None and last = ref None and deviations = ref 0 in
  let setup_times = ref [] and walls = ref [] and rels = ref [] in
  let t_start = Unix.gettimeofday () in
  while List.length !walls < 2 || Unix.gettimeofday () -. t_start < seconds do
    last := None;
    (* set-up is timed from the second pass on, once the heap has grown
       to its working size: on a heap that must still grow it takes up
       to half as long again *)
    if !walls <> [] then
      setup_times := measure_setup setups ~reps ~batches:setup_batches @ !setup_times;
    let wall, ref_s, os = pass setups in
    let v = fst (M.virtual_metrics os) in
    (match !reference with None -> reference := Some v | Some r -> if v <> r then incr deviations);
    walls := wall :: !walls;
    rels := (wall /. ref_s) :: !rels;
    last := Some os
  done;
  let os = Option.get !last in
  let virtual_, latency = M.virtual_metrics os in
  let sim_wall_s = M.median_float !walls in
  let layers = M.layer_metrics os ~wall_s:sim_wall_s in
  let traced, trace_checks =
    if not trace then (None, [])
    else begin
      let acc, t_wall, t_virtual = traced_pass setups in
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      Traced.write (Filename.concat out_dir (w.name ^ ".spans.jsonl")) acc.Traced.spans;
      ( Some (acc, t_wall),
        [
          ( "traced run reproduces every virtual-time metric",
            if t_virtual = virtual_ then Ok ()
            else Error "a virtual-time metric differs between the traced and untraced runs" );
          ( "every ok op has a causal tree",
            if acc.Traced.traced_ops = acc.Traced.ok_ops then Ok ()
            else
              Error (Printf.sprintf "%d of %d ops traced" acc.Traced.traced_ops acc.Traced.ok_ops)
          );
        ] )
    end
  in
  let checks =
    List.concat_map (fun (o : W.outcome) -> List.map (fun (name, f) -> (name, f ())) o.checks) os
    |> List.sort_uniq (fun (a, ra) (b, rb) -> compare (Result.is_ok ra, a) (Result.is_ok rb, b))
  in
  let checks =
    checks
    @ [
        ( "every pass reproduces the first pass's virtual-time metrics",
          if !deviations = 0 then Ok ()
          else Error (Printf.sprintf "%d passes deviated" !deviations) );
      ]
    @ trace_checks
    @ [ ("attribution self-test reproduces T2", (Selftest.run ()).Selftest.result) ]
  in
  {
    workload = w;
    seed;
    passes = List.length !walls;
    setup_s = M.median_float !setup_times;
    sim_wall_s;
    sim_wall_rel = M.median_float !rels;
    peak_heap_mb;
    virtual_;
    latency;
    attempted = M.sum (fun (o : W.outcome) -> o.attempted) os;
    ok = M.ok_ops os;
    layers;
    checks;
    traced;
  }

let correct r = List.for_all (fun (_, v) -> Result.is_ok v) r.checks

(* The end-to-end metrics: virtual time first, then the wall clock. *)
let end_to_end r =
  r.virtual_
  @ [
      M.m "sim_wall_s" "s" r.sim_wall_s;
      M.m "sim_wall_rel" "ratio" r.sim_wall_rel;
      M.m "setup_s" "s" r.setup_s;
      M.m "peak_heap_mb" "MiB" r.peak_heap_mb;
    ]

let per_layer r =
  match r.traced with
  | None -> r.layers
  | Some (t, t_wall) ->
    r.layers @ Traced.metrics t @ [ M.m "obs.trace_wall_ratio" "ratio" (t_wall /. r.sim_wall_s) ]

(* The end-to-end metrics the JSON result line carries: those every
   workload has, never 0, and never the same on every seed. zipf's
   op_p50_ms is the uncontended SIGNAL latency on every seed, so the
   mean stands in for the centre; sim_wall_s drifts with the machine,
   so sim_wall_rel stands in for it. *)
let gated =
  [
    "op_mean_ms"; "op_tail_ms"; "goodput_ops_s"; "ok_ratio"; "pkts_per_op"; "sim_wall_rel";
    "setup_s"; "peak_heap_mb";
  ]

(* Per-layer metrics with no better direction (shares of a whole, SCD's
   delivered-set size) print but stay out of the JSON result line. *)
let directionless (x : M.metric) =
  String.starts_with ~prefix:"sim.tag_share." x.name || x.name = "scd.set_size_mean"

(* ---- output -------------------------------------------------------------------- *)

let num v = Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (x : M.metric) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (num x.value) x.unit_)
         ms)
  ^ "}"

let print_run r =
  Printf.printf "== %s (seed %d): %s; %d instance(s)\n" r.workload.name r.seed r.workload.shape
    r.workload.instances;
  Printf.printf "   %d timed passes; %d ops attempted, %d ok; tail = p%g of %d samples\n" r.passes
    r.attempted r.ok r.latency.M.tail_pct r.latency.M.samples;
  let show (x : M.metric) = Printf.printf "   %-36s %16.6g %s\n" x.name x.value x.unit_ in
  Printf.printf "  end to end\n";
  List.iter show (end_to_end r);
  Printf.printf "  per layer\n";
  List.iter show (per_layer r);
  Printf.printf "  checks\n";
  List.iter
    (fun (name, v) ->
      match v with
      | Ok () -> Printf.printf "   ok    %s\n" name
      | Error e -> Printf.printf "   FAIL  %s: %s\n" name e)
    r.checks

(* ---- report and record ------------------------------------------------------------ *)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the "exclusive" method), so the record's spread matches what that
   module reports for the same values. *)
let quartiles l =
  let a = M.sorted_of_list l in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* The seeds, besides the run's own, of the record's cross-seed spread. *)
let spread_seeds = [ 2; 3; 4 ]

(* run.py builds in dune's default profile. *)
let dune_profile = "dev"

(* One workload's entry in the record. *)
let workload_entry r spread =
  let b = Buffer.create 8192 in
  let p fmt = Printf.bprintf b fmt in
  p "    {\n      \"name\": \"%s\",\n      \"why\": \"%s\",\n      \"shape\": \"%s\",\n"
    r.workload.name r.workload.why r.workload.shape;
  p "      \"instances\": %d,\n      \"seed\": %d,\n" r.workload.instances r.seed;
  p "      \"samples\": %d,\n      \"tail_percentile\": %g,\n" r.latency.M.samples
    r.latency.M.tail_pct;
  (* a discrete-event generator fires every arrival on time; an op that
     waits behind its client's previous one is timed from its due time,
     so the wait is in its latency *)
  if String.starts_with ~prefix:"open loop" r.workload.shape then
    p "      \"generator_lateness_ms\": 0,\n";
  p "      \"correct\": %b,\n" (correct r);
  p "      \"end_to_end\": %s,\n" (json_metrics (end_to_end r));
  p "      \"per_layer\": %s,\n" (json_metrics (per_layer r));
  p "      \"cross_seed\": {\"seeds\": [%s], \"spread\": {%s}}\n    }"
    (String.concat ", " (List.map string_of_int (r.seed :: spread_seeds)))
    (String.concat ", "
       (List.map
          (fun (name, values) ->
            let q1, q2, q3 = quartiles values in
            Printf.sprintf
              "\"%s\": {\"min\": %s, \"median\": %s, \"max\": %s, \"iqr_over_median\": %s}" name
              (num (List.fold_left min infinity values))
              (num q2)
              (num (List.fold_left max neg_infinity values))
              (num (if q2 = 0.0 then 0.0 else (q3 -. q1) /. q2)))
          spread));
  Buffer.contents b

let record_json ~seconds ~selftest ~defects entries =
  let b = Buffer.create 16384 in
  let p fmt = Printf.bprintf b fmt in
  p "{\n  \"environment\": {\n";
  p "    \"ocaml\": \"%s\",\n" Sys.ocaml_version;
  p "    \"dune_profile\": \"%s\",\n" dune_profile;
  p "    \"ocamlopt_flags\": \"%s\",\n"
    (Option.value (Sys.getenv_opt "PERFBENCH_OCAMLOPT_FLAGS") ~default:"unknown");
  p "    \"nproc\": %d,\n" (Domain.recommended_domain_count ());
  p "    \"wall_clock\": \"Unix.gettimeofday (the clock Engine.wall_seconds reads)\",\n";
  p "    \"seconds_per_run\": %s\n  },\n" (num seconds);
  p "  \"workloads\": [\n%s\n  ],\n" (String.concat ",\n" entries);
  p "  \"attribution_selftest\": {\n";
  List.iter
    (fun (c, v) -> p "    \"%s_ms\": %s,\n" (M.category_slug c) (num v))
    selftest.Selftest.categories;
  p "    \"accounted_ms\": %s,\n    \"pkts_per_signal\": %s,\n    \"reproduces_t2\": %b\n  },\n"
    (num selftest.Selftest.accounted_ms) (num selftest.Selftest.pkts_per_signal)
    (Result.is_ok selftest.Selftest.result);
  p "  \"defects\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map (fun (s, ok) -> Printf.sprintf "    {\"claim\": \"%s\", \"holds\": %b}" s ok) defects));
  Buffer.contents b

(* A workload's run as --trace 1 does it, then one untraced pass per
   extra seed for the cross-seed spread of its virtual-time metrics.
   Returns its record entry, its verdict and its virtual-time metrics. *)
let report_workload (w : W.t) ~seed ~seconds =
  let r = run_workload w ~seed ~seconds ~trace:true in
  print_run r;
  let per_seed =
    List.map
      (fun s ->
        let _, _, os = pass (List.map (fun s -> w.prepare ~seed:s) (W.instance_seeds w s)) in
        fst (M.virtual_metrics os))
      spread_seeds
  in
  let value ms name = (List.find (fun (y : M.metric) -> y.name = name) ms).value in
  let spread =
    List.map (fun (x : M.metric) -> (x.name, x.value :: List.map (fun ms -> value ms x.name) per_seed)) r.virtual_
  in
  ( workload_entry r spread,
    correct r,
    List.map (fun (x : M.metric) -> (x.name, x.value)) r.virtual_ )

let report ~seed ~seconds =
  let parts =
    List.map (fun w -> (w.W.name, in_child (fun () -> report_workload w ~seed ~seconds))) W.all
  in
  let st = Selftest.run () in
  Printf.printf "== attribution self-test (T2 SIGNAL stream)\n";
  List.iter
    (fun (c, v) -> Printf.printf "   %-22s %8.2f ms\n" (Cost.label c) v)
    st.Selftest.categories;
  Printf.printf "   %-22s %8.2f ms\n   %-22s %8.2f\n" "total (accounted)" st.Selftest.accounted_ms
    "packets per SIGNAL" st.Selftest.pkts_per_signal;
  let incast73 =
    (* INCAST counts every completion, a CRASHED verdict too *)
    let o = ((List.find (fun (w : W.t) -> w.name = "incast") W.all).prepare ~seed:73 ~trace:false) () in
    let last = List.fold_left (fun acc (op : W.op) -> max acc op.end_us) 0 o.W.ops in
    float_of_int (List.length o.W.ops) /. (float_of_int last /. 1e6)
  in
  let store name = let _, _, values = List.assoc "store-crash" parts in List.assoc name values in
  let defects =
    [
      ( Printf.sprintf "incast seed 73 goodput %.1f ops/s within a tenth of INCAST's 180.7" incast73,
        Float.abs (incast73 -. 180.7) <= 18.07 );
      ( Printf.sprintf "store-crash read_tail_ms %.1f >= 10x read_p50_ms %.1f" (store "read_tail_ms")
          (store "read_p50_ms"),
        store "read_tail_ms" >= 10.0 *. store "read_p50_ms" );
    ]
  in
  Printf.printf "== defects the benchmark must show\n";
  List.iter (fun (s, ok) -> Printf.printf "   %s  %s\n" (if ok then "ok  " else "FAIL") s) defects;
  let file = Filename.concat "perfbench" "record.json" in
  let oc = open_out file in
  output_string oc
    (record_json ~seconds ~selftest:st ~defects (List.map (fun (_, (e, _, _)) -> e) parts));
  close_out oc;
  Printf.printf "== wrote %s\n" file;
  List.for_all (fun (_, (_, ok, _)) -> ok) parts
  && Result.is_ok st.Selftest.result
  && List.for_all snd defects

(* ---- command line ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let report_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of zipf, incast, store-crash, scd");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  wall seconds of timed passes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--report", Arg.Set report_mode, " run every workload and write perfbench/record.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 | --report";
  if !report_mode then exit (if report ~seed:!seed ~seconds:!seconds then 0 else 1);
  match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w ->
    let r = run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
    print_run r;
    let metrics =
      if !trace = 1 then List.filter (fun x -> not (directionless x)) (per_layer r)
      else List.filter (fun (x : M.metric) -> List.mem x.name gated) (end_to_end r)
    in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
      (correct r) r.attempted (r.attempted - r.ok) (json_metrics metrics);
    exit (if correct r then 0 else 1)
