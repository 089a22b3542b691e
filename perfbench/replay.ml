(* Layer calls replayed on the records a workload committed.  Each call
   is timed on the full records and on copies that keep the first half
   of each record's ranges; [scale_2x] = full / half, so superlinear
   cost shows as a ratio rather than as an absolute figure. *)

open Lbc_core
module Record = Lbc_wal.Record

let half (r : Record.txn) =
  let keep = (List.length r.Record.ranges + 1) / 2 in
  { r with Record.ranges = List.filteri (fun i _ -> i < keep) r.Record.ranges }

(* Median seconds per call of [f].  A call of 0.2 s or more is timed
   once; shorter calls are repeated in 7 batches of at least 20 ms. *)
let per_call f =
  let (), first = Clock.time f in
  if first >= 0.2 then first
  else begin
    let reps = max 1 (int_of_float (0.02 /. Float.max first 1e-7)) in
    List.init 7 (fun _ ->
        snd (Clock.time (fun () -> for _ = 1 to reps do f () done))
        /. float_of_int reps)
    |> Clock.median
  end

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs

(* [name_ms], [name_ns_per_byte] and [name.scale_2x] for [call] on
   [prepare] of the records and of their halves; [bytes] sizes the
   work. *)
let measure name ~bytes ~prepare ~call records =
  let run rs =
    let input = prepare rs in
    (per_call (fun () -> call input), bytes rs)
  in
  let full_s, full_bytes = run records in
  let half_s, _ = run (List.map half records) in
  [
    (name ^ "_ms", full_s *. 1e3, "ms");
    (name ^ "_ns_per_byte", full_s *. 1e9 /. float_of_int (max 1 full_bytes), "ns/B");
    (name ^ ".scale_2x", full_s /. half_s, "ratio");
  ]

let each f xs = List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
let wire_bytes = sum Wire.size

let codecs ~range_header_size records =
  let encoded rs = List.map (Record.encode ~range_header_size) rs in
  let record_bytes = sum (Record.encoded_size ~range_header_size) in
  let update rs = List.map (fun r -> Msg.Update (Wire.encode_iov r)) rs in
  List.concat
    [
      measure "core.wire_encode_iov" records ~bytes:wire_bytes ~prepare:Fun.id
        ~call:(each Wire.encode_iov);
      measure "core.wire_encode" records ~bytes:wire_bytes ~prepare:Fun.id
        ~call:(each Wire.encode);
      measure "core.wire_decode" records ~bytes:wire_bytes
        ~prepare:(List.map Wire.encode) ~call:(each Wire.decode);
      measure "core.wire_decode_iov" records ~bytes:wire_bytes
        ~prepare:(List.map Wire.encode_iov) ~call:(each Wire.decode_iov);
      measure "wal.record_encode" records ~bytes:record_bytes ~prepare:Fun.id
        ~call:(each (Record.encode ~range_header_size));
      measure "wal.record_decode" records ~bytes:record_bytes ~prepare:encoded
        ~call:(each (fun b -> Record.decode b ~pos:0));
      measure "util.crc32" records ~bytes:record_bytes ~prepare:encoded
        ~call:(each (fun b -> Lbc_util.Crc32.bytes b ~pos:0 ~len:(Bytes.length b)));
      measure "real.msg_codec_encode" records ~bytes:wire_bytes ~prepare:update
        ~call:(each Lbc_real.Msg_codec.encode);
      measure "real.msg_codec_decode" records ~bytes:wire_bytes
        ~prepare:(fun rs ->
          List.map (fun m -> Lbc_util.Slice.concat (Lbc_real.Msg_codec.encode m)) (update rs))
        ~call:(each Lbc_real.Msg_codec.decode);
    ]

(* [Log.append] then [Log.force] of each record, onto a fresh log file in
   the temp directory: µs per record, median of three passes. *)
let append_force ~range_header_size records =
  let pass rs () =
    let path = Filename.temp_file "perfbench-log" ".img" in
    let dev = Lbc_storage.Dev.create_file ~path () in
    Fun.protect
      ~finally:(fun () ->
        Lbc_storage.Dev.close dev;
        Sys.remove path)
      (fun () ->
        let log = Lbc_wal.Log.attach dev in
        List.iter
          (fun r ->
            ignore (Lbc_wal.Log.append ~range_header_size log r : int);
            Lbc_wal.Log.force log)
          rs)
  in
  let time rs =
    Clock.median (List.init 3 (fun _ -> snd (Clock.time (pass rs))))
  in
  let full = time records and half = time (List.map half records) in
  let n = float_of_int (max 1 (List.length records)) in
  [
    ("wal.append_force_us", full *. 1e6 /. n, "us");
    ( "wal.append_force_ns_per_byte",
      full *. 1e9 /. float_of_int (max 1 (sum (Record.encoded_size ~range_header_size) records)),
      "ns/B" );
    ("wal.append_force.scale_2x", full /. half, "ratio");
  ]
