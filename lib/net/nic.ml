module Stats = Soda_sim.Stats

type t = {
  bus : Bus.t;
  mid : int;
  stats : Stats.t option;
  mutable crc_drops : int;
  mutable enabled : bool;
}

(* CRC screen: a frame whose trailer fails to verify is dropped here;
   a good one is handed to [rx] as a view of the frame buffer. *)
let attach_view ?stats bus ~mid ~rx =
  let t = { bus; mid; stats; crc_drops = 0; enabled = true } in
  Bus.attach bus ~mid ~rx:(fun frame ->
      if t.enabled then begin
        let len = Crc16.payload_len frame.Frame.wire in
        if len < 0 then begin
          t.crc_drops <- t.crc_drops + 1;
          match t.stats with
          | Some s -> Stats.incr s "nic.crc_drops"
          | None -> ()
        end
        else
          let broadcast =
            match frame.Frame.dst with Frame.Broadcast -> true | Frame.To _ -> false
          in
          rx ~src:frame.Frame.src ~broadcast ~ctx:frame.Frame.ctx ~wire:frame.Frame.wire
            ~len
      end);
  t

let mid t = t.mid

let send_wire t ?ctx ~dst wire = Bus.send_wire t.bus ?ctx ~src:t.mid ~dst:(Frame.To dst) wire

let broadcast_wire t ?ctx wire = Bus.send_wire t.bus ?ctx ~src:t.mid ~dst:Frame.Broadcast wire

let crc_drops t = t.crc_drops

let disable t = t.enabled <- false
let enable t = t.enabled <- true
