(* Metrics of one finished workload run, taken from outside: through the
   ops the benchmark's clients recorded and the public counters the
   layers leave behind (engine counters, kernel and bus [Stats], the
   frame pool, the recorder's metrics registry). The traced run adds
   what only the typed event stream knows; see [Traced]. *)

module Engine = Soda_sim.Engine
module Stats = Soda_sim.Stats
module Cost = Soda_base.Cost_model
module Bus = Soda_net.Bus
module Pool = Soda_net.Pool
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Metrics = Soda_obs.Metrics
module Recorder = Soda_obs.Recorder
module W = Workload

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- percentiles ---------------------------------------------------------------- *)

(* The tail is the highest percentile of this ladder with at least ten
   samples beyond it. *)
let ladder = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let tail_pct n =
  match List.find_opt (fun p -> n - rank ~n p >= 10) ladder with
  | Some p -> p
  | None -> 100.0

(* Nearest-rank percentile of an ascending array (0 when empty). *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank ~n p - 1)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

type latency = {
  p50_ms : float;
  tail_ms : float;
  tail_pct : float;
  mean_ms : float;
  samples : int;
}

(* Latency of the ops that succeeded; failed ones are counted against the
   attempts by fail_ratio and ok_ratio instead. *)
let latency ops =
  let sorted =
    sorted_of_list
      (List.filter_map (fun (o : W.op) -> if o.ok then Some (o.end_us - o.due_us) else None) ops)
  in
  let n = Array.length sorted in
  let tp = tail_pct n in
  let at p = float_of_int (pct sorted p) /. 1000.0 in
  let mean_ms = Array.fold_left (fun acc v -> acc +. float_of_int v) 0.0 sorted /. float_of_int (max n 1) /. 1000.0 in
  { p50_ms = at 50.0; tail_ms = at tp; tail_pct = tp; mean_ms; samples = n }

(* ---- end to end, virtual time ------------------------------------------------------- *)

let frames net = Stats.counter (Bus.stats (Network.bus net)) "bus.frames_sent"
let ok_ops (os : W.outcome list) =
  List.fold_left
    (fun acc (o : W.outcome) -> acc + List.length (List.filter (fun (op : W.op) -> op.ok) o.ops))
    0 os

let sum f os = List.fold_left (fun acc o -> acc + f o) 0 os

(* Virtual time from each instance's start to its last op's end, summed:
   the span goodput and the medium's busy share are taken over. *)
let span_us os =
  sum (fun (o : W.outcome) -> List.fold_left (fun acc (op : W.op) -> max acc op.end_us) 0 o.ops) os

(* Deterministic for a seed: a traced run must reproduce these exactly.
   A run's instances pool as if they ran back to back. *)
let virtual_metrics (os : W.outcome list) =
  let ok = ok_ops os in
  let attempted = sum (fun (o : W.outcome) -> o.attempted) os in
  let ops = List.concat_map (fun (o : W.outcome) -> o.ops) os in
  let all = latency ops in
  let split cls = List.filter (fun (op : W.op) -> op.cls = cls) ops in
  let phases =
    match (split W.Read, split W.Write) with
    | [], _ | _, [] -> []
    | reads, writes ->
      let r = latency reads and w = latency writes in
      [
        m "read_p50_ms" "ms" r.p50_ms;
        m "read_tail_ms" "ms" r.tail_ms;
        m "write_p50_ms" "ms" w.p50_ms;
        m "write_tail_ms" "ms" w.tail_ms;
      ]
  in
  ( [ m "op_p50_ms" "ms" all.p50_ms; m "op_tail_ms" "ms" all.tail_ms; m "op_mean_ms" "ms" all.mean_ms ]
    @ phases
    @ [
        m "goodput_ops_s" "ops/s" (float_of_int ok /. (float_of_int (max (span_us os) 1) /. 1e6));
        m "fail_ratio" "fraction" (ratio (attempted - ok) attempted);
        m "ok_ratio" "fraction" (ratio ok attempted);
        m "pkts_per_op" "frames" (ratio (sum (fun (o : W.outcome) -> frames o.net) os) ok);
      ],
    all )

(* ---- per layer, from counters ---------------------------------------------------- *)

let sum_counter kernels key =
  List.fold_left (fun acc k -> acc + Stats.counter (Kernel.stats k) key) 0 kernels

(* The §5.5 T2 attribution: microseconds charged to each cost category,
   summed over the given kernels. The self-test applies this same
   function to the paper's SIGNAL stream. *)
let categories kernels =
  List.map
    (fun c ->
      (c, List.fold_left (fun acc k -> acc + Stats.time_us (Kernel.stats k) (Cost.label c)) 0 kernels))
    Cost.all_categories

let category_slug = function
  | Cost.Protocol -> "protocol"
  | Cost.Client_overhead -> "client_overhead"
  | Cost.Context_switch -> "context_switch"
  | Cost.Conn_timer -> "conn_timer"
  | Cost.Retrans_timer -> "retrans_timer"
  | Cost.Transmission -> "transmission"

let tags = [ "bus"; "client"; "kernel"; "proto" ]

let median_float l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Counters sum over a run's instances; percentiles that only exist
   per instance (bus queue wait) are the median of the instances'. [wall_s]
   is the run's median untraced [sim_wall_s]. *)
let layer_metrics (os : W.outcome list) ~wall_s =
  let engines = List.map (fun (o : W.outcome) -> Network.engine o.net) os in
  let buses = List.map (fun (o : W.outcome) -> Network.bus o.net) os in
  let regs = List.map (fun (o : W.outcome) -> Recorder.metrics (Network.recorder o.net)) os in
  let kernels = List.concat_map (fun (o : W.outcome) -> o.kernels) os in
  let ops = ok_ops os in
  let per_op v = ratio v ops in
  let counters = List.map Engine.counters engines in
  let fired = sum (fun c -> c.Engine.fired) counters in
  let tag n = sum (fun e -> Option.value (List.assoc_opt n (Engine.tag_counts e)) ~default:0) engines in
  let tag_total = sum (fun e -> List.fold_left (fun acc (_, n) -> acc + n) 0 (Engine.tag_counts e)) engines in
  let gc pick = List.fold_left (fun acc e -> acc +. pick (Engine.gc_words e)) 0.0 engines in
  let bus key = sum (fun b -> Stats.counter (Bus.stats b) key) buses in
  let reg key = sum (fun r -> Metrics.counter r key) regs in
  let k = sum_counter kernels in
  let queue p =
    median_float
      (List.map
         (fun b ->
           let s = Bus.stats b in
           let p = match p with `P50 -> 50.0 | `Tail -> tail_pct (Stats.count s "bus.queueing_us") in
           float_of_int (Stats.percentile_us s "bus.queueing_us" p))
         buses)
  in
  let set_size =
    let n, total =
      List.fold_left
        (fun (n, total) r ->
          match Metrics.histogram r "scd.set_size" with
          | Some h -> (n + Metrics.Histogram.count h, total + Metrics.Histogram.sum h)
          | None -> (n, total))
        (0, 0) regs
    in
    ratio total n
  in
  [
    m "sim.events_per_op" "events" (per_op fired);
    m "sim.events_per_wall_s" "1/s" (float_of_int fired /. wall_s);
    m "sim.cancel_ratio" "fraction"
      (ratio (sum (fun c -> c.Engine.cancelled) counters) (sum (fun c -> c.Engine.scheduled) counters));
    m "sim.heap_highwater" "events"
      (float_of_int (List.fold_left (fun acc e -> max acc (Engine.heap_highwater e)) 0 engines));
    m "sim.gc_minor_words_per_event" "words" (gc (fun (w, _, _) -> w) /. float_of_int (max 1 fired));
    m "sim.gc_promoted_words_per_event" "words" (gc (fun (_, w, _) -> w) /. float_of_int (max 1 fired));
  ]
  @ List.map (fun t -> m ("sim.tag_share." ^ t) "fraction" (ratio (tag t) tag_total)) tags
  @ [
      m "net.frames_per_op" "frames" (per_op (bus "bus.frames_sent"));
      m "net.bytes_per_op" "bytes" (per_op (bus "bus.bytes_sent"));
      m "net.medium_busy_ratio" "fraction"
        (ratio (sum (fun b -> Stats.time_us (Bus.stats b) "bus.medium_busy") buses) (span_us os));
      m "net.queue_wait_p50_us" "us" (queue `P50);
      m "net.queue_wait_tail_us" "us" (queue `Tail);
      m "net.pool_reuse_ratio" "fraction"
        (ratio (sum (fun b -> Pool.reuses (Bus.pool b)) buses) (sum (fun b -> Pool.acquires (Bus.pool b)) buses));
      m "proto.retrans_timer_ratio" "fraction" (ratio (k "pkt.retransmissions.timer") (k "pkt.sent.total"));
      m "proto.busy_nacks_per_op" "count" (per_op (k "req.busy_nacked"));
      m "proto.duplicates_per_op" "count" (per_op (k "pkt.duplicates"));
      m "proto.standalone_acks_per_op" "count" (per_op (k "pkt.standalone_acks"));
    ]
  @ List.map
      (fun (cat, us) -> m ("kernel." ^ category_slug cat ^ "_ms_per_op") "ms" (ratio us ops /. 1000.0))
      (categories kernels)
  @ [
      (* refusals the benchmark's own clients see; lib/store and lib/scd
         retry theirs inside, where the wait shows in store.self_ms_per_op *)
      m "kernel.slot_refusals_per_op" "count" (per_op (sum (fun (o : W.outcome) -> o.refused) os));
      m "kernel.held_requests_per_op" "count" (per_op (k "req.buffered" + k "req.held_nacked"));
      m "kernel.probes_per_op" "count" (per_op (k "probe.sent"));
      m "store.rounds_per_op" "count" (per_op (reg "store.rounds"));
      m "store.retries_per_op" "count" (per_op (reg "store.retries"));
      m "scd.forwards_per_broadcast" "frames" (ratio (reg "scd.forwards") (reg "scd.broadcasts"));
      m "scd.frames_per_op" "frames" (per_op (reg "scd.forwards"));
      m "scd.retry_frames_per_op" "frames" (per_op (reg "scd.retry_frames"));
      m "scd.recollects_per_op" "count" (per_op (reg "scd.recollects"));
      m "scd.set_size_mean" "messages" set_size;
    ]
