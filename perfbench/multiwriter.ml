(* Two writer domains in a closed loop on the real backend: each writer
   sends its next transaction only after its commit returns.  Eight
   locks cover one 256 KB region, one 32 KB segment each.  A
   transaction takes its writer's home lock with probability 3/4,
   otherwise a uniformly random lock, writes four random 8-byte words
   in that lock's segment and commits under [Config.default]. *)

open Lbc_core

let region = 0
let locks = 8
let segment = 32 * 1024
let region_size = locks * segment
let writers = 2
let words = 4
let txns = 10_000

(* One writer's generated inputs: transaction [i] takes [lock.(i)] and
   writes [values.(4i+k)] at [offsets.(4i+k)]. *)
type plan = { lock : int array; offsets : int array; values : int64 array }

let plan ~seed ~writer =
  let rng = Random.State.make [| seed; writer |] in
  let home = writer in
  let lock =
    Array.init txns (fun _ ->
        if Random.State.int rng 4 < 3 then home else Random.State.int rng locks)
  in
  let offsets =
    Array.init (txns * words) (fun j ->
        (lock.(j / words) * segment) + (8 * Random.State.int rng (segment / 8)))
  in
  let values = Array.init (txns * words) (fun _ -> Random.State.bits64 rng) in
  { lock; offsets; values }

let plans ~seed = Array.init writers (fun writer -> plan ~seed ~writer)

let setup ~backend ~parent =
  Spans.span ~parent "bench.setup" @@ fun parent ->
  let c =
    Spans.span ~parent "core.cluster_create" (fun _ ->
        let c = Cluster.create ~backend ~nodes:writers () in
        Cluster.add_region c ~id:region ~size:region_size;
        c)
  in
  Spans.span ~parent "rvm.map_region" (fun _ ->
      Cluster.map_region_all c ~region);
  c

(* Per writer: commit latencies in µs, committed records (newest
   first), and when its last commit returned. *)
type progress = {
  latency : float array;
  mutable committed : int;
  mutable records : Lbc_wal.Record.txn list;
  mutable last_commit : int64;
}

let writer ~parent p prog node =
  try
    for i = 0 to txns - 1 do
      let id = Spans.fresh () in
      let t0 = Clock.now_ns () in
      let txn = Node.Txn.begin_ node in
      match
        Spans.span ~parent:id "locks.acquire" (fun _ ->
            Node.Txn.acquire txn p.lock.(i));
        for k = 0 to words - 1 do
          let j = (i * words) + k in
          Node.Txn.set_u64 txn ~region ~offset:p.offsets.(j) p.values.(j)
        done;
        Spans.span ~parent:id "core.commit" (fun _ ->
            Node.Txn.commit_outcome txn)
      with
      | o ->
          let t1 = Clock.now_ns () in
          Spans.record ~parent ~id "bench.txn" t0 t1;
          prog.latency.(i) <- Clock.seconds_between t0 t1 *. 1e6;
          prog.records <- o.Lbc_rvm.Rvm.record :: prog.records;
          prog.committed <- i + 1;
          prog.last_commit <- t1
      | exception e ->
          (try Node.Txn.abort txn with _ -> ());
          raise e
    done
  with _ -> ()

(* The image the run must converge to, from the generated inputs alone:
   every word belongs to one lock's segment, so applying each
   transaction's writes in its lock's sequence order gives the final
   bytes.  The sequence numbers come from the committed records. *)
let expected plans progs =
  let img = Bytes.make region_size '\000' in
  let txns =
    Array.to_list progs
    |> List.mapi (fun w prog ->
           List.rev prog.records
           |> List.mapi (fun i (r : Lbc_wal.Record.txn) ->
                  match r.Lbc_wal.Record.locks with
                  | [ l ] when l.Lbc_wal.Record.lock_id = plans.(w).lock.(i) ->
                      Some (l.Lbc_wal.Record.lock_id, l.Lbc_wal.Record.seqno, w, i)
                  | _ -> None))
    |> List.concat
  in
  if List.mem None txns then None
  else begin
    List.filter_map Fun.id txns
    |> List.sort compare
    |> List.iter (fun (_, _, w, i) ->
           for k = 0 to words - 1 do
             let j = (i * words) + k in
             Bytes.set_int64_le img plans.(w).offsets.(j) plans.(w).values.(j)
           done);
    Some img
  end

let iteration ~backend ~parent plans =
  let c, setup_s = Clock.time (fun () -> setup ~backend ~parent) in
  Fun.protect ~finally:(fun () -> Cluster.shutdown c) @@ fun () ->
  Lbc_util.Slice.reset_counters ();
  let progs =
    Array.init writers (fun _ ->
        {
          latency = Array.make txns 0.0;
          committed = 0;
          records = [];
          last_commit = 0L;
        })
  in
  let t_start = Clock.now_ns () in
  for w = 0 to writers - 1 do
    Cluster.spawn c ~node:w (writer ~parent plans.(w) progs.(w))
  done;
  let ran = match Cluster.run c with () -> true | exception _ -> false in
  let t_end = Clock.now_ns () in
  Spans.record ~parent ~id:(Spans.fresh ()) "core.drain"
    (Array.fold_left (fun a p -> max a p.last_commit) t_start progs)
    t_end;
  let attempted = writers * txns in
  let committed = Array.fold_left (fun a p -> a + p.committed) 0 progs in
  let records =
    Array.to_list progs |> List.concat_map (fun p -> List.rev p.records)
  in
  let counts = Sample.counts c ~records in
  let base = Bytes.make region_size '\000' in
  let checks_pass recovered =
    ran && committed = attempted
    &&
    match (Sample.converged c ~region, expected plans progs) with
    | Some img, Some want -> Bytes.equal img want && Bytes.equal recovered want
    | _ -> false
  in
  match Sample.recover ~parent c ~region ~base with
  | Some (recovered, recover_s) when checks_pass recovered ->
      let last = Array.fold_left (fun a p -> max a p.last_commit) 0L progs in
      {
        Sample.setup_s;
        writer_commit_s = Clock.seconds_between t_start last;
        visible_s = Clock.seconds_between t_start t_end;
        commit_us = Array.concat (Array.to_list (Array.map (fun p -> p.latency) progs));
        recover_s;
        attempted;
        committed;
        records;
        counts;
      }
  | _ -> Sample.failed ~setup_s ~attempted

let setup_only ~backend =
  let c, setup_s = Clock.time (fun () -> setup ~backend ~parent:0) in
  Cluster.shutdown c;
  setup_s
