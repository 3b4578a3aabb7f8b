(** Per-node network interface.

    The NIC performs the two cheap screening steps the paper assigns to the
    line interface (§6.12): destination-MID filtering (done by the bus
    delivery fan-out) and CRC verification — a frame with a bad CRC is
    simply discarded (§5.2.2). Good payloads are handed to the attached
    kernel. *)

type t

(** [attach_view ?stats bus ~mid ~rx] creates the station. [rx] receives
    each verified frame together with the sender's mid and whether the
    frame was broadcast, as a view: the frame's wire buffer and its
    payload length — the payload is [wire.[0 .. len-1]]. The buffer
    belongs to the bus (it may be a pooled buffer recycled after this
    delivery), so [rx] must finish reading before returning and must not
    retain [wire]. When [stats] is given, CRC-failed frames also increment
    its ["nic.crc_drops"] counter, so the drop count surfaces in the
    node's metrics registry. *)
val attach_view :
  ?stats:Soda_sim.Stats.t ->
  Bus.t ->
  mid:int ->
  rx:
    (src:int ->
    broadcast:bool ->
    ctx:Soda_obs.Causal.ctx option ->
    wire:bytes ->
    len:int ->
    unit) ->
  t

val mid : t -> int

(** [send_wire t ?ctx ~dst wire] transmits a sealed frame ([wire]
    carries its CRC trailer already) to a specific machine; ownership
    transfers to the bus — see {!Bus.send_wire}. [ctx] is out-of-band
    causal metadata riding the frame (see {!Frame.t}). *)
val send_wire : t -> ?ctx:Soda_obs.Causal.ctx -> dst:int -> bytes -> unit

(** [broadcast_wire t ?ctx wire] transmits a sealed frame to every
    station. *)
val broadcast_wire : t -> ?ctx:Soda_obs.Causal.ctx -> bytes -> unit

(** Frames dropped by this NIC due to CRC failure. *)
val crc_drops : t -> int

(** Stop delivering frames (simulates powering the node down). *)
val disable : t -> unit

val enable : t -> unit
