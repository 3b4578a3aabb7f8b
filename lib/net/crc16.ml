let table =
  lazy
    (Array.init 256 (fun byte ->
         let crc = ref (byte lsl 8) in
         for _ = 0 to 7 do
           if !crc land 0x8000 <> 0 then crc := ((!crc lsl 1) lxor 0x1021) land 0xFFFF
           else crc := (!crc lsl 1) land 0xFFFF
         done;
         !crc))

let compute bytes ~off ~len =
  let table = Lazy.force table in
  let crc = ref 0xFFFF in
  for i = off to off + len - 1 do
    let byte = Char.code (Bytes.get bytes i) in
    crc := ((!crc lsl 8) lxor table.(((!crc lsr 8) lxor byte) land 0xFF)) land 0xFFFF
  done;
  !crc

let seal wire ~len =
  if len < 0 || Bytes.length wire < len + 2 then
    invalid_arg "Crc16.seal: buffer too small for payload + trailer";
  let crc = compute wire ~off:0 ~len in
  Bytes.set wire len (Char.chr (crc lsr 8));
  Bytes.set wire (len + 1) (Char.chr (crc land 0xFF))

let payload_len wire =
  let total = Bytes.length wire in
  if total < 2 then -1
  else begin
    let len = total - 2 in
    let expected = compute wire ~off:0 ~len in
    let stored =
      (Char.code (Bytes.get wire len) lsl 8) lor Char.code (Bytes.get wire (len + 1))
    in
    if expected = stored then len else -1
  end
