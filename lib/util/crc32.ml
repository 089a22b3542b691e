type t = int32

(* Slicing-by-8 (Intel's "slicing-by-N" scheme) over native ints: table
   [k] (entries [k*256 .. k*256+255]) holds the CRC of byte [n] followed
   by [k] zero bytes, so eight input bytes fold into the running value
   with eight independent lookups instead of eight dependent steps.
   Table 0 is the classic byte-at-a-time table; the unaligned tail uses
   it alone.  Built eagerly: 2048 ints, once per process. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let empty = 0xFFFFFFFFl

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update";
  let t = tables in
  let c = ref (Int32.to_int crc land 0xFFFF_FFFF) in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    let lo = Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFF_FFFF in
    let lo = lo lxor !c in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFF_FFFF in
    c :=
      t.((7 * 256) + (lo land 0xFF))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xFF))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor t.(256 + ((hi lsr 16) land 0xFF))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    c := t.((!c lxor byte) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int !c

let update_string crc s =
  update crc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finish crc = Int32.logxor crc 0xFFFFFFFFl
let bytes b ~pos ~len = finish (update empty b ~pos ~len)
let string s = finish (update_string empty s)
