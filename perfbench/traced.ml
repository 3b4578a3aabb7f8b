(* The traced run: the benchmark's own span tree and the per-layer
   numbers only the typed event stream gives.

   Spans are recorded at each boundary the benchmark crosses: the
   workload, its [Network.run], each client op, and under each op the
   children its typed events name — the REQUESTs it trapped (with their
   [Span] phases), its store rounds ([Store_phase]) and SCD member ops
   ([Scd_op]). Every span of one op carries the op's causal trace id.
   Spans stay in memory until [write] dumps them. A span's self time is
   its duration minus the part of it its children cover. *)

module Event = Soda_obs.Event
module Span = Soda_obs.Span
module Analyze = Soda_obs.Analyze
module Recorder = Soda_obs.Recorder
module Engine = Soda_sim.Engine
module Network = Soda_core.Network
module W = Workload

type span = {
  id : int;
  parent : int;  (** 0 for the root *)
  trace : int;  (** causal trace id; 0 for the workload and run spans *)
  layer : string;
  name : string;
  start_us : int;
  end_us : int;
}

(* Microseconds of [a, b) covered by the union of [intervals]. *)
let cover ~a ~b intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max a s and e = min b e in
        if e > s then Some (s, e) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (s, e) ->
        if e <= reach then (total, reach) else (total + e - max s reach, e))
      (0, a) clipped
  in
  total

let self_us spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.start_us, s.end_us)) spans;
  fun s -> s.end_us - s.start_us - cover ~a:s.start_us ~b:s.end_us (Hashtbl.find_all children s.id)

(* Accumulates over a run's instances; each instance's events can be
   dropped once [add] has read them. *)
type t = {
  mutable next : int;
  mutable spans : span list;
  mutable phase_us : (Span.phase * int) list;
  mutable cwnd : int list;
  mutable rtt : int list;
  mutable request_us : int list;
  mutable rounds_us : int list;
  mutable store_self_us : int;
  mutable store_ops : int;
  mutable events : int;
  mutable ok_ops : int;
  mutable traced_ops : int;  (** ok ops whose spans were found under their trace id *)
}

let create () =
  {
    next = 0;
    spans = [];
    phase_us = [];
    cwnd = [];
    rtt = [];
    request_us = [];
    rounds_us = [];
    store_self_us = 0;
    store_ops = 0;
    events = 0;
    ok_ops = 0;
    traced_ops = 0;
  }

let add_span t ~parent ~trace ~layer ~name ~start_us ~end_us =
  t.next <- t.next + 1;
  t.spans <- { id = t.next; parent; trace; layer; name; start_us; end_us } :: t.spans;
  t.next

let add t (o : W.outcome) =
  let events = Recorder.events (Network.recorder o.net) in
  let horizon = Engine.now (Network.engine o.net) in
  let span = add_span t in
  let root = span ~parent:0 ~trace:0 ~layer:"bench" ~name:"workload" ~start_us:0 ~end_us:horizon in
  let run = span ~parent:root ~trace:0 ~layer:"sim" ~name:"Network.run" ~start_us:0 ~end_us:horizon in
  (* trace ids: of each REQUEST (by requester mid and tid) and of each
     store op (its Store_complete, by client mid and instant) *)
  let trap_trace = Hashtbl.create 4096 and store_trace = Hashtbl.create 1024 in
  let by_trace = Hashtbl.create 4096 in
  List.iter
    (fun (e : Event.t) ->
      match (e.kind, e.ctx) with
      | Event.Trap { tid; _ }, Some c -> Hashtbl.replace trap_trace (e.mid, tid) c.trace
      | Event.Store_complete _, Some c -> Hashtbl.replace store_trace (e.mid, e.time_us) c.trace
      | Event.Store_phase { phase; elapsed_us; _ }, ctx ->
        t.rounds_us <- elapsed_us :: t.rounds_us;
        Option.iter
          (fun (c : Soda_obs.Causal.ctx) ->
            Hashtbl.add by_trace c.trace
              (`Child ("store", "round." ^ phase, e.time_us - elapsed_us, e.time_us)))
          ctx
      | Event.Scd_op { op; elapsed_us; _ }, Some c ->
        Hashtbl.add by_trace c.trace (`Child ("scd", "member." ^ op, e.time_us - elapsed_us, e.time_us))
      | Event.Cwnd_change { cwnd; _ }, _ -> t.cwnd <- cwnd :: t.cwnd
      | Event.Rtt_sample { sample_us; _ }, _ -> t.rtt <- sample_us :: t.rtt
      | _ -> ())
    events;
  let requests = Span.of_events events in
  List.iter
    (fun (s : Span.t) ->
      Option.iter (fun tr -> Hashtbl.add by_trace tr (`Request s)) (Hashtbl.find_opt trap_trace (s.mid, s.tid)))
    requests;
  let trees = Hashtbl.create 1024 in
  List.iter (fun (tr : Analyze.tree) -> Hashtbl.replace trees tr.t_trace ()) (Analyze.causal_trees events);
  let closed = List.filter (fun (s : Span.t) -> s.end_us <> None) requests in
  let breakdown = Span.breakdown closed in
  let phase_us p l = Option.value (List.assoc_opt p l) ~default:0 in
  t.phase_us <- List.map (fun p -> (p, phase_us p t.phase_us + phase_us p breakdown)) Span.all_phases;
  t.request_us <- List.filter_map Span.duration_us closed @ t.request_us;
  t.events <- t.events + List.length events;
  List.iter
    (fun (op : W.op) ->
      if op.ok then begin
        t.ok_ops <- t.ok_ops + 1;
        let store_op = op.trace = None in
        let trace = if store_op then Hashtbl.find_opt store_trace (op.mid, op.end_us) else op.trace in
        match trace with
        | Some tr when Hashtbl.mem trees tr ->
          t.traced_ops <- t.traced_ops + 1;
          let layer, name =
            match op.cls with
            | W.Call -> ("client", "signal")
            | W.Read -> ((if store_op then "store" else "scd"), "read")
            | W.Write -> ((if store_op then "store" else "scd"), "write")
          in
          let id = span ~parent:run ~trace:tr ~layer ~name ~start_us:op.due_us ~end_us:op.end_us in
          let covered = ref [] in
          List.iter
            (function
              | `Child (layer, name, start_us, end_us) ->
                ignore (span ~parent:id ~trace:tr ~layer ~name ~start_us ~end_us)
              | `Request (s : Span.t) ->
                let end_us = Option.value s.end_us ~default:horizon in
                covered := (s.start_us, end_us) :: !covered;
                let rq = span ~parent:id ~trace:tr ~layer:"proto" ~name:"REQUEST" ~start_us:s.start_us ~end_us in
                List.iter
                  (fun (g : Span.segment) ->
                    ignore
                      (span ~parent:rq ~trace:tr ~layer:"proto" ~name:(Span.phase_name g.phase)
                         ~start_us:g.seg_start_us ~end_us:g.seg_end_us))
                  s.segments)
            (Hashtbl.find_all by_trace tr);
          (* the store op's time outside its own REQUESTs: slot wait and backoff *)
          if store_op then begin
            t.store_ops <- t.store_ops + 1;
            t.store_self_us <-
              t.store_self_us + (op.end_us - op.due_us) - cover ~a:op.due_us ~b:op.end_us !covered
          end
        | _ -> ()
      end)
    o.ops

let ms_per_op us ops = Measure.ratio us ops /. 1000.0

let metrics t =
  let ops = t.ok_ops in
  let p50 l = float_of_int (Measure.pct (Measure.sorted_of_list l) 50.0) in
  let tail l = float_of_int (Measure.pct (Measure.sorted_of_list l) (Measure.tail_pct (List.length l))) in
  let phase p =
    let slug = String.map (function '-' -> '_' | c -> c) (Span.phase_name p) in
    Measure.m
      (Printf.sprintf "proto.%s_ms_per_op" slug)
      "ms"
      (ms_per_op (Option.value (List.assoc_opt p t.phase_us) ~default:0) ops)
  in
  List.map phase Span.all_phases
  @ [
      Measure.m "proto.cwnd_p50" "packets" (p50 t.cwnd);
      Measure.m "proto.rtt_p50_us" "us" (p50 t.rtt);
      Measure.m "proto.req_latency_tail_us" "us" (tail t.request_us);
      Measure.m "store.round_p50_ms" "ms" (p50 t.rounds_us /. 1000.0);
      Measure.m "store.round_tail_ms" "ms" (tail t.rounds_us /. 1000.0);
      Measure.m "store.self_ms_per_op" "ms" (ms_per_op t.store_self_us t.store_ops);
      Measure.m "obs.events_per_op" "events" (Measure.ratio t.events ops);
    ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line, with each span's self time. *)
let write file spans =
  let self = self_us spans in
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"layer\":%s,\"name\":%s,\"start_us\":%d,\"end_us\":%d,\"self_us\":%d}\n"
        s.id s.parent s.trace (json_string s.layer) (json_string s.name) s.start_us s.end_us
        (self s))
    spans;
  close_out oc
