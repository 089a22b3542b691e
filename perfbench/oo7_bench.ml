(* An OO7 traversal (T2-B or T3-B) on the small database, run as one
   transaction by node 0 under lock 0 on a two-node cluster — the
   paper's unit of one writer and one receiver.  The transaction is built from the same
   public calls [Lbc_oo7.Runner.run] makes, so that the benchmark can
   stamp begin and commit on the host clock itself. *)

open Lbc_core
open Lbc_oo7

let region = Runner.region
let lock = Runner.lock
let default_seed = Schema.small.seed

(* Table 3's rows (updates, unique bytes, message bytes, pages) for the
   traversals the benchmark runs, which the database built from the
   default seed reproduces. *)
let row = function
  | Traversal.T2 Traversal.B -> (43_740, 80_000, 120_010, 613)
  | Traversal.T3 Traversal.B -> (303_875, 516_424, 661_479, 653)
  | k -> invalid_arg (Traversal.name k)

type oracle = {
  schema : Schema.config;
  kind : Traversal.kind;
  image : Bytes.t;  (** the freshly built database *)
  after : Bytes.t;  (** the same after the traversal, run on plain bytes *)
}

let traverse_plain o =
  let after = Bytes.copy o.image in
  let (_ : Traversal.result) =
    Traversal.run (Database.attach_bytes o.schema after) o.kind
  in
  after

let oracle ~seed kind =
  Commands.ensure ();
  let schema = { Schema.small with seed } in
  let o = { schema; kind; image = Builder.build schema; after = Bytes.empty } in
  { o with after = traverse_plain o }

let setup ~backend ~parent schema =
  Spans.span ~parent "bench.setup" @@ fun parent ->
  let c =
    Spans.span ~parent "core.cluster_create" (fun _ ->
        let c = Cluster.create ~backend ~nodes:2 () in
        Cluster.add_region c ~id:region ~size:(Schema.region_size schema);
        c)
  in
  Spans.span ~parent "oo7.build" (fun _ ->
      Lbc_storage.Dev.load (Cluster.region_dev c region) (Builder.build schema));
  Spans.span ~parent "rvm.map_region" (fun _ ->
      Cluster.map_region_all c ~region);
  c

type written = {
  t_begin : int64;
  t_commit : int64;
  outcome : Lbc_rvm.Rvm.commit_outcome;
  updates : int;
}

(* Leaves [result] at [None] if anything raises: the process always
   returns, so the run quiesces on either backend. *)
let writer ~parent o result node =
  try
    let stats = Lbc_rvm.Rvm.stats (Node.rvm node) in
    let updates0 = stats.Lbc_rvm.Rvm.set_ranges in
    let id = Spans.fresh () in
    let t_begin = Clock.now_ns () in
    let txn = Node.Txn.begin_ node in
    Spans.span ~parent:id "locks.acquire" (fun _ -> Node.Txn.acquire txn lock);
    let db = Database.attach_txn o.schema txn ~region in
    let (_ : Traversal.result) =
      Spans.span ~parent:id "oo7.traverse" (fun _ -> Traversal.run db o.kind)
    in
    Node.Txn.set_command txn ~op:Commands.traversal_op
      ~params:(Commands.traversal_params ~config:o.schema ~region o.kind)
      ~regions:[ region ];
    let outcome =
      Spans.span ~parent:id "core.commit" (fun _ -> Node.Txn.commit_outcome txn)
    in
    let t_commit = Clock.now_ns () in
    Spans.record ~parent ~id "bench.txn" t_begin t_commit;
    result :=
      Some
        {
          t_begin;
          t_commit;
          outcome;
          updates = stats.Lbc_rvm.Rvm.set_ranges - updates0;
        }
  with _ -> ()

let profile w =
  let value = w.outcome.Lbc_rvm.Rvm.value in
  ( w.updates,
    Lbc_wal.Record.ranges_bytes value,
    Wire.size w.outcome.Lbc_rvm.Rvm.record,
    Runner.pages_updated value )

(* One iteration: set up, run the transaction to quiescence, check and
   recover.  Any exception, strand or failed check makes it a failed
   transaction whose times are not reported. *)
let iteration ~backend ~parent o =
  let c, setup_s = Clock.time (fun () -> setup ~backend ~parent o.schema) in
  Fun.protect ~finally:(fun () -> Cluster.shutdown c) @@ fun () ->
  Lbc_util.Slice.reset_counters ();
  let result = ref None in
  Cluster.spawn c ~node:0 (writer ~parent o result);
  let ran = match Cluster.run c with () -> true | exception _ -> false in
  let t_end = Clock.now_ns () in
  let fail () = Sample.failed ~setup_s ~attempted:1 in
  match (ran, !result) with
  | true, Some w -> (
      Spans.record ~parent ~id:(Spans.fresh ()) "core.drain" w.t_commit t_end;
      let records = [ w.outcome.Lbc_rvm.Rvm.record ] in
      let counts = Sample.counts c ~records in
      let image_ok =
        match Sample.converged c ~region with
        | Some img -> Bytes.equal img o.after
        | None -> false
      in
      let profile_ok =
        o.schema.Schema.seed <> default_seed || profile w = row o.kind
      in
      match Sample.recover ~parent c ~region ~base:o.image with
      | Some (recovered, recover_s)
        when image_ok && profile_ok && Bytes.equal recovered o.after ->
          let commit_s = Clock.seconds_between w.t_begin w.t_commit in
          {
            Sample.setup_s;
            writer_commit_s = commit_s;
            visible_s = Clock.seconds_between w.t_begin t_end;
            commit_us = [| commit_s *. 1e6 |];
            recover_s;
            attempted = 1;
            committed = 1;
            records;
            counts;
          }
      | _ -> fail ())
  | _ -> fail ()

let setup_only ~backend o =
  let c, setup_s = Clock.time (fun () -> setup ~backend ~parent:0 o.schema) in
  Cluster.shutdown c;
  setup_s
