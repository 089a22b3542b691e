(* Tests for the tracing/metrics layer (lib/obs): histogram math, JSON
   escaping and the test-side parser, span/flow recording and the
   explorer's self-check over flight rings, a traced cluster run
   cross-checked against the Report counters, and golden-style
   renderings of Report.pp_cluster. *)

open Lbc_core
module Obs = Lbc_obs.Obs
module Explorer = Lbc_obs.Explorer
module Flight = Lbc_obs.Flight
module FD = Lbc_obs.Flight_dump
module H = Obs.Histogram

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Encode rings (ring [i] is node [i]) to LBCF and decode them back,
   failing the test on a decode error. *)
let dump_of_rings rings =
  let s =
    FD.encode ~clock:"virtual-us" ~dumped_at_ns:0
      (Array.mapi (fun i r -> (i, r)) rings)
  in
  match FD.of_string s with
  | Error e -> Alcotest.failf "LBCF decode failed: %s" e
  | Ok d -> d

(* Dump a cluster's rings through [Cluster.dump_flight] and read the
   file back. *)
let dump_cluster c =
  let path = Filename.temp_file "lbc-flight" ".bin" in
  let (_ : string) = Cluster.dump_flight ~path c in
  let d = FD.read path in
  Sys.remove path;
  match d with
  | Error e -> Alcotest.failf "flight dump unreadable: %s" e
  | Ok d -> d

let check_no_drops d =
  Array.iter
    (fun r ->
      if r.FD.r_dropped <> 0 then
        Alcotest.failf "ring %d dropped %d events" r.FD.r_id r.FD.r_dropped)
    d.FD.d_rings

(* ----------------------------------------------------------------- *)
(* Histograms *)

let test_histogram_basics () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (H.percentile h 50.0);
  for v = 1 to 1000 do
    H.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 1000 (H.count h);
  Alcotest.(check (float 0.001)) "sum" 500_500.0 (H.sum h);
  Alcotest.(check (float 0.001)) "mean" 500.5 (H.mean h);
  Alcotest.(check (float 0.0)) "min" 1.0 (H.min_value h);
  Alcotest.(check (float 0.0)) "max" 1000.0 (H.max_value h);
  let p50 = H.percentile h 50.0 in
  let p95 = H.percentile h 95.0 in
  let p99 = H.percentile h 99.0 in
  (* Bucket interpolation is coarse (power-of-two buckets); check order
     and bucket-level accuracy, not exact values. *)
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99);
  Alcotest.(check bool) "p99 <= max" true (p99 <= H.max_value h);
  Alcotest.(check bool) "p50 in its bucket" true (p50 >= 250.0 && p50 <= 750.0);
  Alcotest.(check bool) "p99 near the top" true (p99 >= 900.0)

let test_histogram_merge () =
  let a = H.create () and b = H.create () in
  List.iter (H.observe a) [ 2.0; 4.0; 8.0 ];
  List.iter (H.observe b) [ 100.0; 200.0 ];
  H.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (H.count a);
  Alcotest.(check (float 0.001)) "merged sum" 314.0 (H.sum a);
  Alcotest.(check (float 0.0)) "merged min" 2.0 (H.min_value a);
  Alcotest.(check (float 0.0)) "merged max" 200.0 (H.max_value a);
  Alcotest.(check int) "source untouched" 2 (H.count b)

(* ----------------------------------------------------------------- *)
(* JSON codec *)

let test_json_parse () =
  match Json.parse {|{"a": [1, 2.5, "x\nA"], "b": {"c": true, "d": null}}|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      let a = Option.get (Json.to_arr (Option.get (Json.member "a" j))) in
      Alcotest.(check int) "array length" 3 (List.length a);
      Alcotest.(check (float 0.0))
        "first num" 1.0
        (Option.get (Json.to_num (List.nth a 0)));
      Alcotest.(check (float 0.0))
        "second num" 2.5
        (Option.get (Json.to_num (List.nth a 1)));
      Alcotest.(check string)
        "escapes decoded" "x\nA"
        (Option.get (Json.to_str (List.nth a 2)));
      let b = Option.get (Json.member "b" j) in
      Alcotest.(check bool)
        "nested bool" true
        (match Json.member "c" b with Some (Json.Bool v) -> v | _ -> false);
      Alcotest.(check bool)
        "nested null" true
        (Json.member "d" b = Some Json.Null)

let test_json_rejects () =
  let bad s =
    match Json.parse s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "trailing bytes" true (bad {|{"a": 1} x|});
  Alcotest.(check bool) "unterminated string" true (bad {|{"a": "oops|});
  Alcotest.(check bool) "bare token" true (bad "nope");
  Alcotest.(check bool) "empty input" true (bad "")

let test_json_escape () =
  Alcotest.(check string)
    "escape specials" {|a\"b\n\t\\|}
    (Lbc_obs.Json.escape "a\"b\n\t\\")

(* ----------------------------------------------------------------- *)
(* Disabled sink: every entry point is a no-op *)

let test_disabled_noop () =
  let o = Obs.disabled in
  Alcotest.(check bool) "not enabled" false (Obs.enabled o);
  let sp = Obs.span_begin o ~name:"x" ~pid:0 ~tid:0 () in
  Alcotest.(check bool) "null span" true (sp == Obs.null_span);
  Alcotest.(check (float 0.0)) "span_end" 0.0 (Obs.span_end o sp);
  Obs.instant o ~name:"x" ~pid:0 ~tid:0 ();
  Obs.flow_start o ~id:1 ~pid:0 ~tid:0;
  Alcotest.(check bool)
    "flow_end" true
    (Obs.flow_end o ~id:1 ~pid:0 ~tid:0 = None);
  Obs.count o "c" 1;
  Alcotest.(check int) "counter stays 0" 0 (Obs.counter o "c");
  Obs.observe o "h" 5.0;
  Alcotest.(check bool) "no histogram" true (Obs.hist o "h" = None);
  Obs.mark o "m";
  Alcotest.(check bool) "no mark" true (Obs.take_mark o "m" = None)

(* ----------------------------------------------------------------- *)
(* Span / flow emission against a fake clock *)

let test_spans_flows_render () =
  let clock = ref 0.0 in
  let o = Obs.create ~now:(fun () -> !clock) ~nodes:2 () in
  let id = Obs.flow_id ~lock:3 ~seqno:1 in
  clock := 10.0;
  let commit = Obs.span_begin o ~name:"commit" ~pid:0 ~tid:Obs.lane_txn () in
  clock := 15.0;
  Obs.flow_start o ~id ~pid:0 ~tid:Obs.lane_txn;
  clock := 20.0;
  Alcotest.(check (float 0.001)) "commit dur" 10.0 (Obs.span_end o commit);
  clock := 30.0;
  let apply = Obs.span_begin o ~name:"apply" ~pid:1 ~tid:Obs.lane_apply () in
  let lag = Obs.flow_end o ~id ~pid:1 ~tid:Obs.lane_apply in
  Alcotest.(check bool) "lag measured" true (lag = Some 15.0);
  clock := 35.0;
  ignore (Obs.span_end o apply : float);
  Alcotest.(check bool)
    "unknown flow id" true
    (Obs.flow_end o ~id:9999 ~pid:1 ~tid:Obs.lane_apply = None);
  let d = dump_of_rings (Obs.rings o) in
  check_no_drops d;
  Alcotest.(check (list string)) "self-check clean" [] (Explorer.self_check d);
  let f = Explorer.flow_summary d in
  Alcotest.(check int) "flow starts" 1 f.Explorer.fl_starts;
  Alcotest.(check int) "flow ends" 1 f.Explorer.fl_ends;
  Alcotest.(check int) "none unresolved" 0 f.Explorer.fl_unresolved;
  let stages = Explorer.stage_breakdown d in
  Alcotest.(check (list (pair string int)))
    "span durations in ns"
    [ ("commit", 10_000); ("apply", 5_000) ]
    (List.map (fun s -> (s.Explorer.st_name, s.Explorer.st_total_ns)) stages)

(* A span's start is rebuilt as end - dur.  With fractional-µs stamps,
   truncating the end and the float duration separately put the start
   1 ns after the flow head stamped at the span's begin. *)
let test_span_start_exact () =
  let clock = ref 0.0 in
  let o = Obs.create ~now:(fun () -> !clock) ~nodes:2 () in
  let id = Obs.flow_id ~lock:1 ~seqno:1 in
  clock := 5.0;
  Obs.flow_start o ~id ~pid:0 ~tid:Obs.lane_txn;
  clock := 10.0003;
  let apply = Obs.span_begin o ~name:"apply" ~pid:1 ~tid:Obs.lane_apply () in
  Alcotest.(check bool)
    "head recorded" true
    (Obs.flow_end o ~id ~pid:1 ~tid:Obs.lane_apply <> None);
  clock := 20.0001;
  ignore (Obs.span_end o apply : float);
  let d = dump_of_rings (Obs.rings o) in
  let evs = d.FD.d_rings.(1).FD.r_events in
  let head = evs.(0) and span = evs.(1) in
  Alcotest.(check bool) "flow head" true (head.FD.ev_kind = FD.Flow_end);
  Alcotest.(check int)
    "span starts at the head's stamp" head.FD.ev_ts_ns
    (Explorer.span_start span);
  Alcotest.(check (list string)) "self-check clean" [] (Explorer.self_check d)

let test_marks () =
  let clock = ref 100.0 in
  let o = Obs.create ~now:(fun () -> !clock) ~nodes:1 () in
  Obs.mark o "fetch:0:7";
  clock := 140.0;
  Alcotest.(check bool)
    "elapsed" true
    (Obs.take_mark o "fetch:0:7" = Some 40.0);
  Alcotest.(check bool) "consumed" true (Obs.take_mark o "fetch:0:7" = None)

(* The self-check must report dumps that violate the contract, recorded
   straight into rings (ring 0 commits, ring 1 applies; times in ns). *)
let test_self_check_catches () =
  let check what ~expect build =
    let r0 = Flight.create () and r1 = Flight.create () in
    build r0 r1;
    let problems = Explorer.self_check (dump_of_rings [| r0; r1 |]) in
    if not (List.exists (fun p -> contains p expect) problems) then
      Alcotest.failf "%s: no %S among [%s]" what expect
        (String.concat "; " problems)
  in
  let apply r1 ~from ~until =
    Flight.record_span r1 ~ts_ns:until ~name:"apply" ~lane:Obs.lane_apply
      ~dur_ns:(until - from) ~arg:0
  in
  let head r1 ts = Flight.record_flow r1 ~ts_ns:ts ~head:true ~id:7 ~lane:1 in
  let tail r0 ts = Flight.record_flow r0 ~ts_ns:ts ~head:false ~id:7 ~lane:0 in
  check "flow end without start" ~expect:"no start" (fun _ r1 ->
      head r1 6_000;
      apply r1 ~from:5_000 ~until:15_000);
  check "start after its end" ~expect:"after its end" (fun r0 r1 ->
      tail r0 9_000;
      head r1 6_000;
      apply r1 ~from:5_000 ~until:15_000);
  check "flow end outside any apply span" ~expect:"outside any apply span"
    (fun r0 r1 ->
      tail r0 1_000;
      head r1 6_000);
  (* Ring 0 wraps and evicts the start; ring 1 drops nothing.  The end
     lies before the window every ring still covers, so it is not
     reported. *)
  let r0 = Flight.create ~cap_bytes:256 () and r1 = Flight.create () in
  tail r0 1_000;
  head r1 2_000;
  apply r1 ~from:2_000 ~until:3_000;
  for i = 1 to 200 do
    Flight.record_instant r0 ~ts_ns:(3_000 + i) ~name:"tick" ~lane:0
  done;
  let d = dump_of_rings [| r0; r1 |] in
  Alcotest.(check bool) "start evicted" true
    (Array.for_all
       (fun ev -> ev.FD.ev_kind <> FD.Flow_start)
       d.FD.d_rings.(0).FD.r_events);
  Alcotest.(check (list string)) "wrapped ring clean" [] (Explorer.self_check d);
  Alcotest.(check int) "none unresolved" 0
    (Explorer.flow_summary d).Explorer.fl_unresolved

(* ----------------------------------------------------------------- *)
(* A traced cluster run: the trace passes its own self-check and its
   metrics agree with the Report counters. *)

let region_size = 1024

let mk_cluster config nodes =
  let c = Cluster.create ~config ~nodes () in
  Cluster.add_region c ~id:0 ~size:region_size;
  Cluster.map_region_all c ~region:0;
  c

let script_writer c ~node ~lock ~commits =
  Cluster.spawn c ~node (fun nd ->
      for i = 1 to commits do
        let txn = Node.Txn.begin_ nd in
        Node.Txn.acquire txn lock;
        Node.Txn.set_u64 txn ~region:0 ~offset:(8 * lock)
          (Int64.of_int ((node * 1000) + i));
        Node.Txn.commit txn;
        Lbc_sim.Proc.sleep 10.0
      done)

let total_commits c nodes =
  let sum = ref 0 in
  for n = 0 to nodes - 1 do
    let s = Lbc_rvm.Rvm.stats (Node.rvm (Cluster.node c n)) in
    sum := !sum + s.Lbc_rvm.Rvm.commits
  done;
  !sum

let test_traced_cluster_run () =
  let nodes = 3 in
  let c = mk_cluster Config.default nodes in
  script_writer c ~node:0 ~lock:0 ~commits:4;
  script_writer c ~node:1 ~lock:1 ~commits:3;
  script_writer c ~node:2 ~lock:2 ~commits:2;
  Cluster.run c;
  let o = Cluster.obs c in
  Alcotest.(check bool) "tracing on" true (Obs.enabled o);
  let d = dump_cluster c in
  check_no_drops d;
  Alcotest.(check (list string))
    "trace self-check clean" [] (Explorer.self_check d);
  (* Every committed write's flow arrow resolves into an apply span
     on every sharing peer: 9 commits broadcast to 2 peers each. *)
  let f = Explorer.flow_summary d in
  Alcotest.(check int) "flow starts" 9 f.Explorer.fl_starts;
  Alcotest.(check int) "flow ends" 18 f.Explorer.fl_ends;
  Alcotest.(check int) "none unresolved" 0 f.Explorer.fl_unresolved;
  (* The explorer sees the pipeline stages. *)
  let stages = Explorer.stage_breakdown d in
  let stage n = List.exists (fun s -> s.Explorer.st_name = n) stages in
  Alcotest.(check bool) "commit stage" true (stage "commit");
  Alcotest.(check bool) "apply stage" true (stage "apply");
  Alcotest.(check bool) "net.send stage" true (stage "net.send");
  Alcotest.(check bool)
    "critical path found" true
    (Explorer.critical_path d <> None);
  (* Metrics agree with the Report counters. *)
  let commits = total_commits c nodes in
  Alcotest.(check int) "nine commits" 9 commits;
  (match Obs.hist o "commit_us" with
  | None -> Alcotest.fail "no commit_us histogram"
  | Some h ->
      Alcotest.(check int) "one commit_us sample per commit" commits
        (H.count h));
  (match Obs.hist o "apply_lag_us" with
  | None -> Alcotest.fail "no apply_lag_us histogram"
  | Some h ->
      Alcotest.(check int) "one apply_lag sample per flow end" 18 (H.count h));
  Alcotest.(check int)
    "net_msgs counter matches fabric accounting"
    (Cluster.total_messages c)
    (Obs.counter o "net_msgs")

(* The default cluster carries the flight sink: rings and the metric
   registry are live. *)
let test_untraced_cluster_keeps_flight () =
  let c = mk_cluster Config.default 2 in
  script_writer c ~node:0 ~lock:0 ~commits:2;
  Cluster.run c;
  let o = Cluster.obs c in
  Alcotest.(check bool) "sink live" true (Obs.enabled o);
  Alcotest.(check bool) "flight rings on" true (Obs.flight_on o);
  (* The registry feeds Report and the wall-clock bench percentiles. *)
  Alcotest.(check int)
    "net_msgs counter matches fabric accounting"
    (Cluster.total_messages c)
    (Obs.counter o "net_msgs");
  Alcotest.(check bool)
    "commit_us histogram live" true
    (Obs.hist o "commit_us" <> None);
  (* Both nodes' rings saw events (node 0 commits, node 1 applies). *)
  let stats = Obs.ring_stats o in
  Alcotest.(check int) "one ring per node" 2 (Array.length stats);
  Array.iteri
    (fun i (recorded, dropped, bytes) ->
      if recorded <= 0 then Alcotest.failf "ring %d recorded nothing" i;
      if dropped <> 0 then Alcotest.failf "ring %d dropped %d" i dropped;
      if bytes <= 0 then Alcotest.failf "ring %d used no bytes" i)
    stats

(* Opting out of the flight recorder too restores the shared disabled
   sink, and dump_flight refuses. *)
let test_flightless_cluster_is_silent () =
  let c = mk_cluster { Config.default with Config.flight = false } 2 in
  script_writer c ~node:0 ~lock:0 ~commits:2;
  Cluster.run c;
  let o = Cluster.obs c in
  Alcotest.(check bool) "not enabled" false (Obs.enabled o);
  Alcotest.(check bool) "disabled singleton" true (o == Obs.disabled);
  Alcotest.(check int) "no counters" 0 (Obs.counter o "net_msgs");
  Alcotest.(check bool) "no histograms" true (Obs.hists o = []);
  Alcotest.(check bool)
    "dump_flight refuses" true
    (match Cluster.dump_flight c with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true)

(* Under lazy propagation a receiver obtains records by fetch, which
   has no flow start: the dump must not hold heads without one. *)
let test_lazy_flows_resolve () =
  let config = { Config.default with Config.propagation = Config.Lazy } in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  script_writer c ~node:0 ~lock:0 ~commits:2;
  for node = 1 to nodes - 1 do
    Cluster.spawn c ~node (fun nd ->
        Lbc_sim.Proc.sleep (100.0 *. float_of_int node);
        let txn = Node.Txn.begin_ nd in
        Node.Txn.acquire txn 0;
        Node.Txn.set_u64 txn ~region:0 ~offset:0 (Int64.of_int node);
        Node.Txn.commit txn)
  done;
  Cluster.run c;
  let fetches =
    List.init nodes (fun n -> Cluster.node c n)
    |> List.fold_left
         (fun acc n -> acc + (Node.stats n).Node.records_fetched)
         0
  in
  Alcotest.(check bool) "records were fetched" true (fetches > 0);
  let d = dump_cluster c in
  check_no_drops d;
  Alcotest.(check (list string)) "self-check clean" [] (Explorer.self_check d);
  Alcotest.(check int) "none unresolved" 0
    (Explorer.flow_summary d).Explorer.fl_unresolved

(* ----------------------------------------------------------------- *)
(* Flight recorder: ring wrap/drop properties, LBCF codec round-trip,
   and a cluster dump decoded back clean. *)

(* A replayable random event stream: kind, interned-name index, lane,
   timestamp increment, payload. *)
type op = {
  op_kind : int; (* 0 span, 1 instant, 2 count, 3 flow *)
  op_name : int;
  op_lane : int;
  op_dts : int;
  op_arg : int;
}

let names_pool = [| "commit"; "apply"; "wal.force"; "lock.wait"; "net.send" |]

let op_gen =
  let open QCheck.Gen in
  int_bound 3 >>= fun op_kind ->
  int_bound (Array.length names_pool - 1) >>= fun op_name ->
  int_bound 5 >>= fun op_lane ->
  int_bound 5_000 >>= fun op_dts ->
  int_bound 100_000 >>= fun op_arg ->
  return { op_kind; op_name; op_lane; op_dts; op_arg }

let op_print o =
  Printf.sprintf "{k=%d n=%d l=%d dt=%d a=%d}" o.op_kind o.op_name o.op_lane
    o.op_dts o.op_arg

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 300) op_gen)

(* Replay ops into a ring; returns the absolute timestamps used. *)
let record_ops r ops =
  let ts = ref 0 in
  List.map
    (fun op ->
      ts := !ts + op.op_dts;
      let name = names_pool.(op.op_name) in
      (match op.op_kind with
      | 0 ->
          Flight.record_span r ~ts_ns:!ts ~name ~lane:op.op_lane
            ~dur_ns:op.op_arg ~arg:(op.op_arg / 7)
      | 1 -> Flight.record_instant r ~ts_ns:!ts ~name ~lane:op.op_lane
      | 2 ->
          Flight.record_count r ~ts_ns:!ts ~name ~delta:(op.op_arg - 50_000)
      | _ ->
          Flight.record_flow r ~ts_ns:!ts ~head:(op.op_arg land 1 = 1)
            ~id:op.op_arg ~lane:op.op_lane);
      !ts)
    ops

let dump_of_ring r =
  let s =
    FD.encode ~clock:"virtual-us" ~dumped_at_ns:(Flight.last_ts_ns r)
      [| (0, r) |]
  in
  match FD.of_string s with
  | Error e -> Alcotest.failf "LBCF decode failed: %s" e
  | Ok d -> d

(* Any stream into a minimum-size ring: whole-record eviction keeps the
   books balanced and the surviving suffix decodable and monotone. *)
let qcheck_ring_wrap =
  QCheck.Test.make ~name:"flight ring wrap: drop accounting + self-check"
    ~count:200 ops_arb (fun ops ->
      let r = Flight.create ~cap_bytes:256 () in
      ignore (record_ops r ops : int list);
      let d = dump_of_ring r in
      let ring = d.FD.d_rings.(0) in
      Flight.recorded r = List.length ops
      && FD.self_check d = []
      && Array.length ring.FD.r_events
         = Flight.recorded r - Flight.dropped r
      && (ops = [] || Flight.dropped r > 0 || Flight.bytes_used r <= 256))

(* A ring big enough never to wrap round-trips every event exactly:
   kind, name, lane, absolute timestamp, duration and payload all
   survive the varint codec. *)
let qcheck_ring_roundtrip =
  QCheck.Test.make ~name:"flight codec round-trip (no wrap)" ~count:200
    ops_arb (fun ops ->
      let r = Flight.create ~cap_bytes:(1 lsl 20) () in
      let times = record_ops r ops in
      let d = dump_of_ring r in
      let ring = d.FD.d_rings.(0) in
      let expect =
        List.map2
          (fun op ts ->
            match op.op_kind with
            | 0 ->
                ( FD.Span, names_pool.(op.op_name), op.op_lane, ts, op.op_arg,
                  op.op_arg / 7 )
            | 1 -> (FD.Instant, names_pool.(op.op_name), op.op_lane, ts, 0, 0)
            | 2 ->
                (FD.Count, names_pool.(op.op_name), 0, ts, 0, op.op_arg - 50_000)
            | _ ->
                ( (if op.op_arg land 1 = 1 then FD.Flow_end else FD.Flow_start),
                  "", op.op_lane, ts, 0, op.op_arg ))
          ops times
      in
      let got =
        Array.to_list
          (Array.map
             (fun (e : FD.event) ->
               ( e.FD.ev_kind, e.FD.ev_name, e.FD.ev_lane, e.FD.ev_ts_ns,
                 e.FD.ev_dur_ns, e.FD.ev_arg ))
             ring.FD.r_events)
      in
      Flight.dropped r = 0 && FD.self_check d = [] && got = expect)

(* Deterministic overwrite check: flood a minimum ring and require the
   survivors to be exactly the newest suffix. *)
let test_flight_newest_survive () =
  let r = Flight.create ~cap_bytes:256 () in
  for i = 1 to 1000 do
    Flight.record_instant r ~ts_ns:(i * 10) ~name:"tick" ~lane:0
  done;
  Alcotest.(check int) "all recorded" 1000 (Flight.recorded r);
  Alcotest.(check bool) "wrapped" true (Flight.dropped r > 0);
  let d = dump_of_ring r in
  Alcotest.(check (list string)) "self-check clean" [] (FD.self_check d);
  let evs = d.FD.d_rings.(0).FD.r_events in
  let n = Array.length evs in
  Alcotest.(check int) "survivors" (1000 - Flight.dropped r) n;
  (* Newest event anchors at last_ts_ns; the suffix is contiguous. *)
  Alcotest.(check int) "anchor" 10_000 evs.(n - 1).FD.ev_ts_ns;
  Array.iteri
    (fun i ev ->
      let want = (1000 - n + 1 + i) * 10 in
      if ev.FD.ev_ts_ns <> want then
        Alcotest.failf "survivor %d at ts %d, want %d" i ev.FD.ev_ts_ns want)
    evs

(* Out-of-order timestamps are clamped monotone, never rejected. *)
let test_flight_monotone_clamp () =
  let r = Flight.create () in
  Flight.record_instant r ~ts_ns:100 ~name:"a" ~lane:0;
  Flight.record_instant r ~ts_ns:50 ~name:"b" ~lane:0;
  Flight.record_instant r ~ts_ns:120 ~name:"c" ~lane:0;
  let d = dump_of_ring r in
  Alcotest.(check (list string)) "self-check clean" [] (FD.self_check d);
  let ts =
    Array.to_list
      (Array.map (fun e -> e.FD.ev_ts_ns) d.FD.d_rings.(0).FD.r_events)
  in
  Alcotest.(check (list int)) "clamped" [ 100; 100; 120 ] ts

(* A garbage file, a version-1 dump and a truncated dump all fail
   loudly. *)
let test_flight_decode_rejects () =
  (match FD.of_string "not a flight dump" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  let r = Flight.create () in
  Flight.record_instant r ~ts_ns:10 ~name:"x" ~lane:0;
  let s = FD.encode ~clock:"virtual-us" ~dumped_at_ns:10 [| (0, r) |] in
  (* Version 1 spans had no arg field, so its bodies would misdecode. *)
  (match FD.of_string ("LBCF\001" ^ String.sub s 5 (String.length s - 5)) with
  | Error e ->
      if not (contains e "version 1") then
        Alcotest.failf "version-1 error does not say so: %s" e
  | Ok _ -> Alcotest.fail "version-1 dump accepted");
  match FD.of_string (String.sub s 0 (String.length s - 3)) with
  | Error _ -> ()
  | Ok d ->
      (* A truncated body may still parse the header; then the ring
         must carry decode errors that fail the self-check. *)
      if FD.self_check d = [] then
        Alcotest.fail "truncated dump passed self-check"

(* An untraced cluster run dumps a decodable, self-check-clean flight
   file with events for every node — the instrumented path end to end. *)
let test_cluster_flight_dump () =
  let nodes = 3 in
  let c = mk_cluster Config.default nodes in
  script_writer c ~node:0 ~lock:0 ~commits:4;
  script_writer c ~node:1 ~lock:1 ~commits:3;
  script_writer c ~node:2 ~lock:2 ~commits:2;
  Cluster.run c;
  let path = Filename.temp_file "lbc-flight" ".bin" in
  let written = Cluster.dump_flight ~path c in
  Alcotest.(check string) "dump path" path written;
  Alcotest.(check bool) "last_flight set" true (Cluster.last_flight c = Some path);
  Alcotest.(check bool) "magic detected" true (FD.is_flight_file path);
  (match FD.read path with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok d ->
      Alcotest.(check (list string)) "self-check clean" [] (FD.self_check d);
      Alcotest.(check string) "sim clock" "virtual-us" d.FD.d_clock;
      Alcotest.(check int) "one ring per node" nodes
        (Array.length d.FD.d_rings);
      Array.iter
        (fun ring ->
          if Array.length ring.FD.r_events = 0 then
            Alcotest.failf "ring %d has no events" ring.FD.r_id)
        d.FD.d_rings;
      (* The merged stream is globally monotone. *)
      let merged = FD.merged d in
      Array.iteri
        (fun i ev ->
          if i > 0 && ev.FD.ev_ts_ns < merged.(i - 1).FD.ev_ts_ns then
            Alcotest.failf "merged stream steps backwards at %d" i)
        merged;
      (* And it renders to parseable Chrome-trace JSON. *)
      match Json.parse (FD.render_chrome d) with
      | Error e -> Alcotest.failf "render_chrome not JSON: %s" e
      | Ok _ -> ());
  Sys.remove path

(* ----------------------------------------------------------------- *)
(* Golden-style rendering of Report.pp_cluster *)

let test_report_golden () =
  let config = { Config.default with Config.group_commit = true } in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  script_writer c ~node:0 ~lock:0 ~commits:2;
  script_writer c ~node:1 ~lock:1 ~commits:1;
  Cluster.spawn c ~node:0 (fun nd ->
      let txn = Node.Txn.begin_ nd in
      Node.Txn.acquire txn 2;
      Node.Txn.abort txn);
  Cluster.run c;
  let rendered = Format.asprintf "%a" Report.pp_cluster c in
  let expect what sub =
    if not (contains rendered sub) then
      Alcotest.failf "%s: %S not found in:\n%s" what sub rendered
  in
  expect "header" "cluster: 3 nodes";
  expect "copy counters" "data path:";
  expect "copy counters" "encode arenas";
  expect "node 0 stats" "node 0: 2 commits (1 aborts)";
  expect "node 1 stats" "node 1: 1 commits (0 aborts)";
  expect "group commit" "group commit:";
  expect "batches" "batches";
  expect "flight line" "obs: flight";
  expect "flight accounting" "(rec/drop/bytes)";
  if contains rendered "blocked:" then
    Alcotest.fail "quiescent cluster must not report blocked processes"

(* A stranded process must surface in the blocked list. *)
let test_report_blocked_list () =
  let c = mk_cluster Config.default 2 in
  Lbc_net.Fabric.set_drop (Cluster.fabric c) ~src:0 ~dst:1 true;
  Cluster.spawn c ~node:0 (fun nd ->
      let txn = Node.Txn.begin_ nd in
      Node.Txn.acquire txn 0;
      Node.Txn.set_u64 txn ~region:0 ~offset:0 7L;
      Node.Txn.commit txn);
  Cluster.spawn c ~node:1 (fun nd ->
      Lbc_sim.Proc.sleep 50.0;
      let txn = Node.Txn.begin_ nd in
      Node.Txn.acquire txn 0;
      (* unreachable: the update was dropped and nothing repairs it *)
      Node.Txn.commit txn);
  Cluster.run ~check_stranded:false c;
  let rendered = Format.asprintf "%a" Report.pp_cluster c in
  Alcotest.(check bool)
    "blocked list rendered" true
    (contains rendered "blocked:")

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "json parse" `Quick test_json_parse;
        Alcotest.test_case "json rejects garbage" `Quick test_json_rejects;
        Alcotest.test_case "json escape" `Quick test_json_escape;
        Alcotest.test_case "disabled sink is a no-op" `Quick
          test_disabled_noop;
        Alcotest.test_case "spans and flows render" `Quick
          test_spans_flows_render;
        Alcotest.test_case "span start rebuilt exactly" `Quick
          test_span_start_exact;
        Alcotest.test_case "marks" `Quick test_marks;
        Alcotest.test_case "self-check catches bad traces" `Quick
          test_self_check_catches;
      ] );
    ( "obs-flight",
      [
        QCheck_alcotest.to_alcotest qcheck_ring_wrap;
        QCheck_alcotest.to_alcotest qcheck_ring_roundtrip;
        Alcotest.test_case "newest events survive wrap" `Quick
          test_flight_newest_survive;
        Alcotest.test_case "monotone timestamp clamp" `Quick
          test_flight_monotone_clamp;
        Alcotest.test_case "decoder rejects garbage" `Quick
          test_flight_decode_rejects;
        Alcotest.test_case "cluster dump decodes clean" `Quick
          test_cluster_flight_dump;
      ] );
    ( "obs-cluster",
      [
        Alcotest.test_case "traced run: self-check + report agreement"
          `Quick test_traced_cluster_run;
        Alcotest.test_case "untraced run keeps the flight sink" `Quick
          test_untraced_cluster_keeps_flight;
        Alcotest.test_case "lazy run: fetched records add no flow heads"
          `Quick test_lazy_flows_resolve;
        Alcotest.test_case "flightless run collects nothing" `Quick
          test_flightless_cluster_is_silent;
        Alcotest.test_case "report golden rendering" `Quick
          test_report_golden;
        Alcotest.test_case "report blocked list" `Quick
          test_report_blocked_list;
      ] );
  ]
