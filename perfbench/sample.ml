(* What one iteration of a workload measured, and the checks shared by
   every workload: convergence of the node caches and recovery of the
   merged logs into a fresh image. *)

open Lbc_core

type t = {
  setup_s : float;
  writer_commit_s : float;
      (** first [Txn.begin_] (OO7) or first spawn (multi-writer) until
          the last writer's commit returned *)
  visible_s : float;
      (** same start until [Cluster.run] returned with every peer
          cache applied *)
  commit_us : float array;  (** per transaction, [begin_] to commit return *)
  recover_s : float;
  attempted : int;
  committed : int;  (** transactions that committed and passed every check *)
  records : Lbc_wal.Record.txn list;  (** the committed records *)
  counts : (string * float * string) list;
      (** public layer stats right after the run, before any check *)
}

let failed ~setup_s ~attempted =
  {
    setup_s;
    writer_commit_s = Float.nan;
    visible_s = Float.nan;
    commit_us = [||];
    recover_s = Float.nan;
    attempted;
    committed = 0;
    records = [];
    counts = [];
  }

let nodes c = List.init (Cluster.size c) (Cluster.node c)
let logs c = List.map (fun n -> Lbc_rvm.Rvm.log (Node.rvm n)) (nodes c)

(* [Some image] when every node's cached copy of [region] is the same. *)
let converged c ~region =
  let size = Cluster.region_size c region in
  match
    List.map (fun n -> Node.read n ~region ~offset:0 ~len:size) (nodes c)
  with
  | [] -> None
  | img :: rest ->
      if List.for_all (Bytes.equal img) rest then Some img else None

(* Recovery as an operator runs it: merge every node's log, replay the
   merged stream into a fresh copy of [base], and load each log's
   region index.  Returns the recovered image and the time taken;
   [None] if the logs do not merge or scan cleanly. *)
let recover ~parent c ~region ~base =
  Spans.span ~parent "bench.recover" @@ fun parent ->
  let logs = logs c in
  let dev = Lbc_storage.Dev.create () in
  Lbc_storage.Dev.load dev (Bytes.copy base);
  let t0 = Clock.now_ns () in
  match
    Spans.span ~parent "rvm.recovery_merge" (fun _ -> Merge.merge_logs logs)
  with
  | Error _ -> None
  | Ok records ->
      let (_ : Lbc_rvm.Recovery.outcome) =
        Spans.span ~parent "rvm.recovery_replay" (fun _ ->
            Lbc_rvm.Recovery.replay_records records ~db_for_region:(fun id ->
                if id = region then Some dev else None))
      in
      let clean =
        Spans.span ~parent "wal.region_index" (fun _ ->
            List.for_all
              (fun log ->
                snd (Lbc_wal.Region_index.of_log log) = Lbc_wal.Log.Clean)
              logs)
      in
      let recover_s = Clock.since t0 in
      if clean then Some (Lbc_storage.Dev.snapshot dev, recover_s)
      else None

(* The public layer counters after a run, taken before the checks read
   the caches.  [records] are the committed records; update bytes are
   their new-value payload. *)
let counts c ~records =
  let nodes = nodes c in
  let sum f = float_of_int (List.fold_left (fun a n -> a + f n) 0 nodes) in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 records) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let rvm n = Lbc_rvm.Rvm.stats (Node.rvm n) in
  let locks n = Lbc_locks.Table.stats (Node.locks n) in
  let node n = Node.stats n in
  let update_bytes = total Lbc_wal.Record.ranges_bytes in
  let set_ranges = sum (fun n -> (rvm n).set_ranges) in
  let log n = Lbc_rvm.Rvm.log (Node.rvm n) in
  let count name v = (name, v, "count") and ratio name a b = (name, ratio a b, "ratio") in
  [
    count "rvm.set_range_calls" set_ranges;
    ratio "rvm.ordered_frac" (sum (fun n -> (rvm n).ordered_calls)) set_ranges;
    ratio "rvm.redundant_frac" (sum (fun n -> (rvm n).redundant_calls)) set_ranges;
    count "net.messages" (float_of_int (Cluster.total_messages c));
    count "net.wire_bytes" (float_of_int (Cluster.total_bytes c));
    ratio "core.wire_bytes_per_update_byte" (total Wire.size) update_bytes;
    count "wal.records" (sum (fun n -> Lbc_wal.Log.record_count (log n)));
    ratio "wal.log_bytes_per_update_byte"
      (sum (fun n -> Lbc_wal.Log.live_bytes (log n)))
      update_bytes;
    count "locks.local_grants" (sum (fun n -> (locks n).local_grants));
    count "locks.remote_grants" (sum (fun n -> (locks n).remote_grants));
    count "locks.tokens_passed" (sum (fun n -> (locks n).tokens_passed));
    count "core.records_held" (sum (fun n -> (node n).records_held));
    count "core.interlock_waits" (sum (fun n -> (node n).interlock_waits));
    count "util.bytes_copied" (float_of_int (Lbc_util.Slice.bytes_copied ()));
    count "util.encode_allocs" (float_of_int (Lbc_util.Slice.encode_allocs ()));
  ]
