(* The benchmark's workloads. Each is built from the simulator's public
   API only, in two steps so set-up and simulation are timed apart:
   [prepare ~seed ~trace] builds the network and attaches every program,
   and returns the closure that runs it to quiescence.

   Every op is recorded from the benchmark's own client code. When the
   network traces causally, the client mints one causal root per op and
   makes it the ambient parent of the op's traps, so every REQUEST the
   op makes carries the op's trace id. Minting never schedules engine
   work, so a traced run keeps the untraced run's virtual timing. *)

module Engine = Soda_sim.Engine
module Rng = Soda_sim.Rng
module Zipf = Soda_sim.Zipf
module Types = Soda_base.Types
module Pattern = Soda_base.Pattern
module Cost = Soda_base.Cost_model
module Bus = Soda_net.Bus
module Network = Soda_core.Network
module Kernel = Soda_core.Kernel
module Openloop = Soda_core.Openloop
module Sodal = Soda_runtime.Sodal
module Store = Soda_store.Store
module Scd = Soda_scd.Scd
module Scd_harness = Soda_scd.Harness
module Fault_plan = Soda_fault.Fault_plan
module Injector = Soda_fault.Injector

type cls = Read | Write | Call

type op = {
  cls : cls;
  mid : int;  (** issuing node *)
  due_us : int;  (** arrival (open loop) or invocation (closed loop) *)
  end_us : int;
  ok : bool;
  trace : int option;  (** the op's causal trace id, in causal runs *)
}

type outcome = {
  net : Network.t;
  kernels : Kernel.t list;  (** every kernel created, crashed ones included *)
  ops : op list;  (** finished ops, ok or failed *)
  attempted : int;  (** ops the clients tried, refused and unfinished ones included *)
  refused : int;  (** attempts the issuing kernel refused (MAXREQUESTS) *)
  checks : (string * (unit -> (unit, string) result)) list;
}

type t = {
  name : string;
  why : string;
  shape : string;  (** loop kind, with its rate or client count *)
  instances : int;
      (** independent simulations per run, pooled: one run measures more
          work than one simulation without changing its configuration *)
  prepare : seed:int -> trace:bool -> unit -> outcome;
}

(* The seeds of a run's instances; the first is the run's own seed. *)
let instance_seeds w seed = List.init w.instances (fun i -> seed + (7919 * i))

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Every workload's network profiles its engine's GC allocation (one
   [Gc.quick_stat] pair per run call). *)
let network ~seed ~cost ?bus_config ~trace () =
  let net = Network.create ~seed ~cost ?bus_config ~trace ~causal:trace () in
  Engine.set_profile_gc (Network.engine net) true;
  net

(* Run [f] with a fresh causal root as the kernel's ambient parent;
   returns the root's trace id ([None] when causal tracing is off). *)
let with_root kernel f =
  let saved = Kernel.causal_parent kernel in
  let root = Kernel.mint_causal_root kernel in
  (match root with Some _ -> Kernel.set_causal_parent kernel root | None -> ());
  let v = Fun.protect ~finally:(fun () -> Kernel.set_causal_parent kernel saved) f in
  (Option.map (fun c -> c.Soda_obs.Causal.trace) root, v)

(* ---- zipf: open-loop Poisson SIGNALs on a 1 Gbps medium -------------------------- *)

(* The [Openloop.config] shape (aggregate ~1000 req/s of virtual time,
   theta 0.99, 4 keys per node, scatter of width 4 on every 16th
   arrival), rebuilt here so that each request is timed from its arrival
   and set-up is timed apart from the run. *)
let zipf_nodes = 64
let zipf_requests = 8192

let zipf_run ~seed ~trace =
  let cfg = Openloop.config ~nodes:zipf_nodes ~requests:zipf_requests in
  let n = cfg.Openloop.nodes in
  let cost = { Cost.default with Cost.maxrequests = max 8 (cfg.Openloop.fanout + 1) } in
  let bus_config = { Bus.default_config with Bus.bandwidth_bps = 1_000_000_000 } in
  let net = network ~seed ~cost ~bus_config ~trace () in
  let engine = Network.engine net in
  let zipf = Zipf.create ~n:cfg.Openloop.keys ~theta:cfg.Openloop.zipf_theta in
  let patt = Pattern.well_known 0o644 in
  let offered = ref 0 and issued = ref 0 and refused = ref 0 in
  let ops = ref [] in
  let answers = ref 0 and strays = ref 0 and not_ok = ref 0 in
  (* tid -> (arrival time, trace) per issuing node *)
  let pending = Array.init n (fun _ -> Hashtbl.create 64) in
  let kernels =
    Array.init n (fun i ->
        let kernel = Network.add_node net ~mid:i in
        let invoke_handler = function
          | Types.Booting _ ->
            ignore (Kernel.advertise kernel patt);
            Kernel.endhandler kernel
          | Types.Request_arrival { requester; _ } ->
            Kernel.accept kernel ~requester ~arg:0 ~get_buffer:Bytes.empty ~put:Bytes.empty
              ~on_done:(fun _ -> Kernel.endhandler kernel)
          | Types.Request_completion { requester; status; _ } ->
            let tbl = pending.(i) in
            (match Hashtbl.find_opt tbl requester.Types.rq_tid with
             | Some (due_us, trace) ->
               Hashtbl.remove tbl requester.Types.rq_tid;
               incr answers;
               let ok = status = Types.Completed in
               if not ok then incr not_ok;
               ops :=
                 { cls = Call; mid = i; due_us; end_us = Engine.now engine; ok; trace }
                 :: !ops
             | None -> incr strays);
            Kernel.endhandler kernel
        in
        Kernel.attach_client kernel ~parent:0 { Kernel.invoke_handler; on_kill = ignore };
        kernel)
  in
  let rngs = Array.init n (fun _ -> Rng.split (Engine.rng engine)) in
  let issue src dst =
    let kernel = kernels.(src) in
    let server = { Types.sv_mid = Types.Mid dst; Types.sv_pattern = patt } in
    let trace, r =
      with_root kernel (fun () ->
          Kernel.request kernel ~server ~arg:0 ~put:Bytes.empty ~get_buffer:Bytes.empty)
    in
    match r with
    | Ok tid ->
      incr issued;
      Hashtbl.replace pending.(src) tid (Engine.now engine, trace)
    | Error Kernel.Too_many_requests ->
      (* the open-loop generator does not wait: the arrival is shed *)
      incr refused
    | Error (Kernel.Request_to_self | Kernel.Data_too_large | Kernel.Client_dead) ->
      failwith "zipf: unexpected request error"
  in
  let home src key =
    let dst = key mod n in
    if dst = src then (dst + 1) mod n else dst
  in
  let arrival src =
    let k = !offered in
    incr offered;
    let key = Zipf.sample zipf rngs.(src) in
    issue src (home src key);
    if cfg.Openloop.fanout > 0 && k mod cfg.Openloop.fanout_every = 0 then
      for j = 1 to cfg.Openloop.fanout do
        issue src (home src (key + j))
      done
  in
  let next_delay rng =
    let u = Rng.float rng 1.0 in
    max 1 (int_of_float (-.float_of_int cfg.Openloop.mean_interarrival_us *. log (1.0 -. u)))
  in
  let rec arrive src () =
    if !offered < cfg.Openloop.requests then begin
      arrival src;
      if !offered < cfg.Openloop.requests then
        ignore (Engine.schedule ~tag:"client" engine ~delay:(next_delay rngs.(src)) (arrive src))
    end
  in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule ~tag:"client" engine ~delay:(50_000 + next_delay rngs.(i)) (arrive i))
  done;
  fun () ->
    ignore (Network.run ~until:600_000_000 net);
    let unanswered = Array.fold_left (fun acc t -> acc + Hashtbl.length t) 0 pending in
    {
      net;
      kernels = Array.to_list kernels;
      ops = List.rev !ops;
      attempted = !issued + !refused;
      refused = !refused;
      checks =
        [
          ( "issued = completed + failed, each SIGNAL answered OK once",
            fun () ->
              if !strays > 0 then fail "%d completions for unknown or answered tids" !strays
              else if unanswered > 0 then fail "%d issued SIGNALs never answered" unanswered
              else if !answers <> !issued then fail "%d answers for %d issued" !answers !issued
              else if !not_ok > 0 then fail "%d SIGNALs answered CRASHED/UNADVERTISED" !not_ok
              else Ok () );
        ];
    }

(* ---- incast: 64 pipelined closed-loop clients onto one server ------------------------ *)

(* INCAST's 64-client adaptive row: W=64 with AIMD, 8 SIGNALs in flight
   per client, 32 per client. *)
let incast_clients = 64
let incast_ops = 32
let incast_depth = 8

let incast_run ~seed ~trace =
  let cost = { Cost.default with Cost.window = 64; maxrequests = 65; aimd = true } in
  let patt = Pattern.well_known 0o655 in
  let net = network ~seed ~cost ~trace () in
  let server = Network.add_node net ~mid:0 in
  ignore
    (Sodal.attach server
       {
         Sodal.default_spec with
         init = (fun env ~parent:_ -> Sodal.advertise env patt);
         on_request = (fun env _ -> ignore (Sodal.accept_current_signal env ~arg:0));
       });
  let ops = ref [] and refused = ref 0 in
  let clients =
    List.init incast_clients (fun c ->
        let kernel = Network.add_node net ~mid:(c + 1) in
        ignore
          (Sodal.attach kernel
             {
               Sodal.default_spec with
               task =
                 (fun env ->
                   let sv = Sodal.server ~mid:0 ~pattern:patt in
                   let in_flight = ref 0 and sent = ref 0 in
                   while !sent < incast_ops do
                     while !in_flight >= incast_depth do
                       Sodal.idle env
                     done;
                     let due_us = Sodal.now env in
                     match with_root kernel (fun () -> Sodal.signal env sv ~arg:0) with
                     | trace, tid ->
                       incr sent;
                       incr in_flight;
                       Sodal.on_completion_of env tid (fun comp ->
                           decr in_flight;
                           ops :=
                             {
                               cls = Call;
                               mid = c + 1;
                               due_us;
                               end_us = Sodal.now env;
                               ok = comp.Sodal.status = Sodal.Comp_ok;
                               trace;
                             }
                             :: !ops)
                     | exception Sodal.Too_many_requests ->
                       incr refused;
                       Sodal.compute env 1000
                   done;
                   while !in_flight > 0 do
                     Sodal.idle env
                   done;
                   Sodal.serve env);
             });
        kernel)
  in
  fun () ->
    ignore (Network.run ~until:600_000_000 net);
    let ops = List.rev !ops in
    let total = incast_clients * incast_ops in
    {
      net;
      kernels = server :: clients;
      ops;
      attempted = total;
      refused = !refused;
      checks =
        [
          (* A SIGNAL answered CRASHED while the server is alive is a
             failed op, counted in [failed] and fail_ratio: at 64 clients
             the transport's false crash verdicts fail about half of them
             (ROADMAP item 3), so requiring all OK would fail every run. *)
          ( Printf.sprintf "each of the %dx%d SIGNALs answered exactly once" incast_clients
              incast_ops,
            fun () ->
              if List.length ops = total then Ok ()
              else fail "%d answers for %d SIGNALs" (List.length ops) total );
        ];
    }

(* ---- store-crash: ABD store, one of five replicas crashed late -------------------- *)

let store_n = 5
let store_clients = 4
let store_ops = 500
let store_keys = 8
let store_think_us = 30_000
let store_cluster = "pb"

(* The replicated store with its clients; [crash_at] crashes the last
   replica at that virtual time. *)
let store_build ~seed ~trace ~crash_at =
  let n = store_n in
  let cost = { Cost.default with Cost.maxrequests = n + 2 } in
  let net = network ~seed ~cost ~trace () in
  let replicas = Array.init n (fun index -> Store.replica ~cluster:store_cluster ~index) in
  let kernels = ref [] in
  for mid = 0 to n - 1 do
    let kernel = Network.add_node net ~mid in
    kernels := kernel :: !kernels;
    ignore (Sodal.attach kernel (Store.replica_spec replicas.(mid)))
  done;
  let rng = Rng.split (Engine.rng (Network.engine net)) in
  let ops = ref [] and reads = ref [] and done_count = ref 0 in
  let written = Hashtbl.create 64 in
  for c = 0 to store_clients - 1 do
    let mid = n + 1 + c in
    let kernel = Network.add_node net ~mid in
    kernels := kernel :: !kernels;
    let srng = Rng.split rng in
    let script =
      List.init store_ops (fun i ->
          let key = Rng.int srng store_keys in
          let think = Rng.int srng store_think_us in
          let kind = if Rng.bool srng then `Read else `Write (Printf.sprintf "c%d#%d" mid i) in
          (match kind with `Write v -> Hashtbl.replace written (key, v) () | `Read -> ());
          (key, kind, think))
    in
    ignore
      (Sodal.attach kernel
         {
           Sodal.default_spec with
           task =
             (fun env ->
               Sodal.compute env 50_000;
               let h = Store.handle env ~cluster:store_cluster ~mids:(List.init n Fun.id) in
               List.iter
                 (fun (key, kind, think) ->
                   Sodal.compute env think;
                   let due_us = Sodal.now env in
                   let cls, ok =
                     match kind with
                     | `Read -> (
                       match Store.read env h ~key with
                       | Ok v ->
                         reads := (key, Option.map Bytes.to_string v) :: !reads;
                         (Read, true)
                       | Error Store.No_quorum -> (Read, false))
                     | `Write v -> (
                       match Store.write env h ~key (Bytes.of_string v) with
                       | Ok () -> (Write, true)
                       | Error Store.No_quorum -> (Write, false))
                   in
                   (* lib/store mints each op's causal root itself; the
                      traced run finds it on the op's Store_complete *)
                   ops :=
                     { cls; mid; due_us; end_us = Sodal.now env; ok; trace = None } :: !ops)
                 script;
               incr done_count);
         })
  done;
  (match crash_at with
   | Some at_us ->
     Injector.install net [ { Fault_plan.at_us; action = Fault_plan.Crash (n - 1) } ]
   | None -> ());
  fun () ->
    ignore (Network.run ~until:600_000_000 net);
    let ops = List.rev !ops in
    {
      net;
      kernels = List.rev !kernels;
      ops;
      attempted = store_clients * store_ops;
      refused = 0;
      checks =
        [
          ( "every read returns None or a value written to its key",
            fun () ->
              match
                List.find_opt
                  (fun (key, v) ->
                    match v with None -> false | Some v -> not (Hashtbl.mem written (key, v)))
                  !reads
              with
              | None -> Ok ()
              | Some (key, v) ->
                fail "read of key %d returned %S, never written to it" key
                  (Option.value v ~default:"") );
          ( "no op fails No_quorum with 1 of 5 replicas down",
            fun () ->
              let bad = List.length (List.filter (fun o -> not o.ok) ops) in
              if bad = 0 then Ok () else fail "%d ops failed No_quorum" bad );
          ( "every client script ran to completion",
            fun () ->
              if !done_count = store_clients then Ok ()
              else fail "%d of %d clients finished" !done_count store_clients );
        ];
    }

(* The crash instant is an input made from the seed: the virtual time by
   which three quarters of the healthy run's ops have completed. *)
let store_crash_time ~seed =
  let healthy = store_build ~seed ~trace:false ~crash_at:None () in
  let ends = List.map (fun o -> o.end_us) healthy.ops |> List.sort compare |> Array.of_list in
  ends.((3 * Array.length ends / 4) - 1)

(* ---- scd: SCD-broadcast snapshot and counter, open loop ------------------------------ *)

let scd_n = 8
let scd_clients = 2
let scd_ops = 25
let scd_regs = 4
let scd_mean_interarrival_us = 3_200_000
let scd_cluster = "pb"

let scd_run ~seed ~trace =
  let n = scd_n in
  let cost = { Cost.default with Cost.maxrequests = n + 2 } in
  let net = network ~seed ~cost ~trace () in
  let mids = List.init n Fun.id in
  let members = Array.init n (fun index -> Scd.member ~cluster:scd_cluster ~index ~mids ~regs:scd_regs) in
  let kernels = ref [] in
  for mid = 0 to n - 1 do
    let kernel = Network.add_node net ~mid in
    kernels := kernel :: !kernels;
    ignore (Sodal.attach kernel (Scd.member_spec members.(mid)))
  done;
  let ops = ref [] and history = ref [] and issued = ref [] and done_count = ref 0 in
  let rng = Rng.split (Engine.rng (Network.engine net)) in
  for c = 0 to scd_clients - 1 do
    let mid = n + c in
    let kernel = Network.add_node net ~mid in
    kernels := kernel :: !kernels;
    let crng = Rng.split rng in
    let script = Scd_harness.script crng ~mid ~ops:scd_ops ~regs:scd_regs ~think_us:0 in
    let arrivals =
      let t = ref 100_000 in
      Array.init scd_ops (fun _ ->
          let u = Rng.float crng 1.0 in
          t := !t + max 1 (int_of_float (-.float_of_int scd_mean_interarrival_us *. log (1.0 -. u)));
          !t)
    in
    ignore
      (Sodal.attach kernel
         {
           Sodal.default_spec with
           task =
             (fun env ->
               Sodal.compute env 50_000;
               let h =
                 Scd.handle env ~attempts:(max 12 (2 * n)) ~cluster:scd_cluster ~mids
                   ~regs:scd_regs
               in
               List.iter
                 (fun (index, kind, _) ->
                   let due_us = arrivals.(index) in
                   let now = Sodal.now env in
                   if now < due_us then Sodal.compute env (due_us - now);
                   let start_us = Sodal.now env in
                   issued := (mid, kind) :: !issued;
                   let trace, outcome =
                     with_root kernel (fun () ->
                         match kind with
                         | Scd_harness.Write (reg, v) -> (
                           match Scd.write env h ~reg v with
                           | Ok ts -> Scd_harness.Wrote ts
                           | Error Scd.Unreachable -> Scd_harness.Failed)
                         | Scd_harness.Snapshot -> (
                           match Scd.snapshot env h with
                           | Ok a -> Scd_harness.Snap a
                           | Error Scd.Unreachable -> Scd_harness.Failed)
                         | Scd_harness.Incr delta -> (
                           match Scd.incr env h ~delta with
                           | Ok () -> Scd_harness.Incred
                           | Error Scd.Unreachable -> Scd_harness.Failed)
                         | Scd_harness.Cread -> (
                           match Scd.cread env h with
                           | Ok v -> Scd_harness.Counted v
                           | Error Scd.Unreachable -> Scd_harness.Failed))
                   in
                   let end_us = Sodal.now env in
                   history :=
                     { Scd_harness.client = mid; index; kind; start_us; end_us; outcome }
                     :: !history;
                   let cls =
                     match kind with
                     | Scd_harness.Snapshot | Scd_harness.Cread -> Read
                     | Scd_harness.Write _ | Scd_harness.Incr _ -> Write
                   in
                   ops :=
                     { cls; mid; due_us; end_us; ok = outcome <> Scd_harness.Failed; trace }
                     :: !ops)
                 script;
               incr done_count);
         })
  done;
  fun () ->
    let elapsed_us = Network.run ~until:600_000_000 net in
    let r =
      {
        Scd_harness.net;
        members;
        history = List.rev !history;
        clients_total = scd_clients;
        clients_done = !done_count;
        elapsed_us;
        issued = List.rev !issued;
      }
    in
    let ops = List.rev !ops in
    {
      net;
      kernels = List.rev !kernels;
      ops;
      attempted = scd_clients * scd_ops;
      refused = 0;
      checks =
        [
          ("Harness.check_delivery", fun () -> Scd_harness.check_delivery r);
          ("Harness.check_objects", fun () -> Scd_harness.check_objects r);
          ( "every op completes",
            fun () ->
              let ok = List.length (List.filter (fun o -> o.ok) ops) in
              if ok = scd_clients * scd_ops then Ok ()
              else fail "%d of %d ops completed" ok (scd_clients * scd_ops) );
        ];
    }

let all =
  [
    {
      name = "zipf";
      why =
        "window-1 transport path with the medium idle: engine, heap, pool, wire and \
         kernel work dominate";
      shape =
        Printf.sprintf
          "open loop, Poisson, ~1000 req/s aggregate, %d nodes, %d arrivals, Zipf 0.99, \
           1-in-16 scatter of 4, 1 Gbps"
          zipf_nodes zipf_requests;
      instances = 4;
      prepare = (fun ~seed ~trace -> zipf_run ~seed ~trace);
    };
    {
      name = "incast";
      why = "saturated medium: transport congestion control, retransmits and bus queueing";
      shape =
        Printf.sprintf
          "closed loop, %d clients x %d SIGNALs, %d in flight each, W=64 AIMD"
          incast_clients incast_ops incast_depth;
      instances = 32;
      prepare = (fun ~seed ~trace -> incast_run ~seed ~trace);
    };
    {
      name = "store-crash";
      why =
        "quorum rounds, MAXREQUESTS slots and Delta-t crash detection, healthy then one \
         replica down";
      shape =
        Printf.sprintf
          "closed loop, %d clients x %d ops, 50/50 read/write over %d keys, think <= %d ms, \
           n=%d, last replica crashed at the healthy run's 75%% completion time"
          store_clients store_ops store_keys (store_think_us / 1000) store_n;
      instances = 4;
      prepare =
        (fun ~seed ->
          let crash_at = Some (store_crash_time ~seed) in
          fun ~trace -> store_build ~seed ~trace ~crash_at);
    };
    {
      name = "scd";
      why = "the only workload on lib/scd and its private congestion pump";
      shape =
        Printf.sprintf
          "open loop, Poisson, %d clients x %d ops at one per %d ms each, n=%d members"
          scd_clients scd_ops (scd_mean_interarrival_us / 1000) scd_n;
      instances = 64;
      prepare = (fun ~seed ~trace -> scd_run ~seed ~trace);
    };
  ]
