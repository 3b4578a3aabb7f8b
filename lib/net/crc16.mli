(** CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), as computed by the
    simulated Megalink interface to detect transmission errors. A frame
    whose CRC does not match is silently discarded by the receiving NIC,
    exactly as in §5.2.2 of the paper. *)

(** [compute bytes ~off ~len] returns the 16-bit checksum. *)
val compute : bytes -> off:int -> len:int -> int

(** [seal wire ~len] computes the CRC of [wire.[0 .. len-1]] and writes
    the 2-byte big-endian trailer in place at [len], for buffers of
    exactly [len + 2] bytes.
    @raise Invalid_argument when the buffer lacks room for the trailer. *)
val seal : bytes -> len:int -> unit

(** [payload_len wire] verifies the trailer in place and returns the
    payload length, or [-1] on CRC mismatch or a frame shorter than the
    trailer (no option allocation; this runs once per delivered frame). *)
val payload_len : bytes -> int
