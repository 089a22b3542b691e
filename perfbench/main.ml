(* Host-clock benchmark of the lbc library: see README.md.

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   With --trace 0 it runs iterations of the workload for S seconds and
   reports the end-to-end metrics; with --trace 1 it runs one untraced
   and one traced iteration and reports the per-layer metrics.  The last
   line of standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. *)

open Lbc_core

let workloads =
  [ "oo7-t2b-sim"; "oo7-t2b-real"; "oo7-t3b-sim"; "oo7-t3b-real"; "multiwriter-real" ]

(* The sim reports a stranded process as [Engine.Stranded]; the real
   backend just never quiesces.  So an iteration running longer than
   [stall_s], or a run longer than [watchdog_s], is taken as stranded:
   its transactions count as failed and the run reports what it has. *)
let stall_s = 60.0
let watchdog_s = 170.0

(* After the iterations, set-up alone is repeated for about a second,
   so that a run has between [min_setups] and [max_setups] set-up
   samples. *)
let min_setups = 9
let max_setups = 100

(* Log append+force replays use at most this many records (each pays
   one fsync). *)
let append_force_records = 500

type workload = {
  attempted : int;  (** transactions per iteration *)
  iteration : parent:int -> Sample.t;
  setup_only : unit -> float;
  traverse_plain : unit -> float;
      (** OO7: the traversal on plain bytes, in a span; 0 elsewhere *)
}

let real = Platform.Custom Lbc_real.Backend.factory

let range_header_size = Config.default.Config.range_header_size

let workload name ~seed =
  match String.split_on_char '-' name with
  | [ "oo7"; traversal; platform ] ->
      let kind =
        Lbc_oo7.Traversal.(if traversal = "t2b" then T2 B else T3 B)
      in
      let backend = if platform = "sim" then Platform.Sim else real in
      let o = Oo7_bench.oracle ~seed kind in
      {
        attempted = 1;
        iteration = (fun ~parent -> Oo7_bench.iteration ~backend ~parent o);
        setup_only = (fun () -> Oo7_bench.setup_only ~backend o);
        traverse_plain =
          (fun () ->
            Spans.span "oo7.traverse_plain" (fun _ ->
                snd (Clock.time (fun () -> Oo7_bench.traverse_plain o))));
      }
  | [ "multiwriter"; "real" ] ->
      let plans = Multiwriter.plans ~seed in
      {
        attempted = Multiwriter.writers * Multiwriter.txns;
        iteration = (fun ~parent -> Multiwriter.iteration ~backend:real ~parent plans);
        setup_only = (fun () -> Multiwriter.setup_only ~backend:real);
        traverse_plain = (fun () -> 0.0);
      }
  | _ -> invalid_arg name

(* The iterations finished so far, oldest first, and when the one in
   progress started (0 between iterations); shared with the watchdog. *)
let completed = ref []
let completed_m = Mutex.create ()
let running = Atomic.make 0L
let finished () = Mutex.protect completed_m (fun () -> !completed)

(* Each iteration starts from a compacted heap, so garbage left by the
   previous one does not bill its collection to the next.  Only the
   traced run replays records, so the kept copy drops them: holding
   every iteration's would grow the heap with the iteration count. *)
let iteration w k =
  Gc.compact ();
  Spans.run := k;
  let id = Spans.fresh () in
  let t0 = Clock.now_ns () in
  Atomic.set running t0;
  let s = w.iteration ~parent:id in
  Spans.record ~id "bench.iteration" t0 (Clock.now_ns ());
  Atomic.set running 0L;
  Printf.printf
    "  iteration %d: setup %.4f s, writer commit %.4f s, visible %.4f s, \
     recover %.4f s, %d of %d committed\n%!"
    k s.Sample.setup_s s.Sample.writer_commit_s s.Sample.visible_s
    s.Sample.recover_s s.Sample.committed s.Sample.attempted;
  Mutex.protect completed_m (fun () ->
      completed := !completed @ [ { s with Sample.records = [] } ]);
  s

let succeeded s = s.Sample.committed = s.Sample.attempted

(* Iterations until the next one would end past [seconds] (at least
   one), then set-up alone. *)
let timed w ~seconds =
  let t0 = Clock.now_ns () in
  let rec loop k last =
    if k = 0 || Clock.since t0 +. last <= seconds then
      loop (k + 1) (snd (Clock.time (fun () -> ignore (iteration w k))))
  in
  loop 0 0.0;
  let samples = finished () in
  let t1 = Clock.now_ns () in
  let rec setups acc n =
    if n >= max_setups || (n >= min_setups && Clock.since t1 > 1.0) then acc
    else setups (w.setup_only () :: acc) (n + 1)
  in
  let own = List.map (fun s -> s.Sample.setup_s) samples in
  (samples, setups own (List.length own))

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Times are medians over the run's successful iterations (set-up: over
   its set-up samples).  Beside each iteration time the run prints the
   highest percentile with at least ten iterations beyond it, the
   fastest iteration and the iteration count.

   Per-transaction latency quantiles and throughput are reported where
   an iteration commits many transactions; on OO7 they would only repeat
   [writer_commit_s] and [visible_s]. *)
let end_to_end w samples setups =
  let ok = List.filter succeeded samples in
  let med f = Clock.median (List.map f ok) in
  let timing name f =
    let xs = List.map f ok in
    let n = List.length xs in
    Printf.printf "  %-36s median %.6f s" name (Clock.median xs);
    if n > 10 then begin
      let q = 1.0 -. (10.0 /. float_of_int n) in
      Printf.printf ", p%.0f %.6f s" (q *. 100.0) (Clock.quantile q xs)
    end;
    Printf.printf ", fastest %.6f s (%d iterations)\n" (Clock.minimum xs) n;
    (name, Clock.median xs, "s")
  in
  let lat = List.concat_map (fun s -> Array.to_list s.Sample.commit_us) ok in
  Printf.printf "  %d set-ups, %d commit latency samples\n" (List.length setups)
    (List.length lat);
  let commit = timing "writer_commit_s" (fun s -> s.Sample.writer_commit_s) in
  let visible = timing "visible_s" (fun s -> s.Sample.visible_s) in
  let recover = timing "recover_s" (fun s -> s.Sample.recover_s) in
  List.concat
    [
      [ ("setup_s", Clock.median setups, "s"); commit; visible ];
      (if w.attempted > 1 then
         [
           ("commit_p50_us", Clock.quantile 0.5 lat, "us");
           ("commit_p99_us", Clock.quantile 0.99 lat, "us");
           ( "throughput_tps",
             med (fun s -> float_of_int s.Sample.committed /. s.Sample.visible_s),
             "1/s" );
         ]
       else []);
      [ recover; ("heap_peak_mb", heap_peak_mb (), "MB") ];
    ]

(* Spans of the traced iteration the per-layer metrics are read from. *)
let layer_spans =
  [
    "bench.iteration"; "bench.setup"; "core.cluster_create"; "oo7.build";
    "rvm.map_region"; "bench.txn"; "locks.acquire"; "oo7.traverse";
    "core.commit"; "core.drain"; "bench.recover"; "rvm.recovery_merge";
    "rvm.recovery_replay"; "wal.region_index";
  ]

let sum = List.fold_left ( +. ) 0.0

(* Self time per span name, largest first. *)
let self_by_name selfs =
  List.sort_uniq compare (List.map (fun (s, _) -> s.Spans.name) selfs)
  |> List.map (fun name ->
         ( name,
           sum
             (List.filter_map
                (fun (s, self) -> if s.Spans.name = name then Some self else None)
                selfs) ))
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let per_layer ~untraced ~traced ~plain_s selfs =
  let durations name =
    List.filter_map
      (fun (s, _) -> if s.Spans.name = name then Some (Spans.duration s) else None)
      selfs
  in
  let total name = sum (durations name) in
  let self_s = self_by_name selfs in
  let self name = try List.assoc name self_s with Not_found -> 0.0 in
  let us q name =
    match durations name with
    | [] -> 0.0
    | ds -> Clock.quantile q ds *. 1e6
  in
  let counts = traced.Sample.counts in
  let set_ranges =
    List.fold_left
      (fun a (n, v, _) -> if n = "rvm.set_range_calls" then v else a)
      0.0 counts
  in
  let detect_s = if plain_s > 0.0 then total "oo7.traverse" -. plain_s else 0.0 in
  let records = traced.Sample.records in
  let first n l = List.filteri (fun i _ -> i < n) l in
  List.concat
    [
      [
        ("core.cluster_create_s", total "core.cluster_create", "s");
        ("oo7.build_s", total "oo7.build", "s");
        ("rvm.map_region_s", total "rvm.map_region", "s");
        ("locks.acquire_p50_us", us 0.5 "locks.acquire", "us");
        ("locks.acquire_p99_us", us 0.99 "locks.acquire", "us");
        ("oo7.traverse_s", total "oo7.traverse", "s");
        ("oo7.traverse_plain_s", plain_s, "s");
        ("rvm.detect_s", detect_s, "s");
        ( "rvm.detect_ns_per_call",
          (if set_ranges > 0.0 then detect_s *. 1e9 /. set_ranges else 0.0),
          "ns" );
        ("core.commit_s", total "core.commit", "s");
        ("core.commit_p50_us", us 0.5 "core.commit", "us");
        ("core.commit_p99_us", us 0.99 "core.commit", "us");
        ("core.drain_s", total "core.drain", "s");
        ("rvm.recovery_merge_s", total "rvm.recovery_merge", "s");
        ("rvm.recovery_replay_s", total "rvm.recovery_replay", "s");
        ("wal.region_index_s", total "wal.region_index", "s");
        ( "trace.overhead_s",
          traced.Sample.visible_s -. untraced.Sample.visible_s,
          "s" );
      ];
      List.map (fun n -> (n ^ ".self_s", self n, "s")) layer_spans;
      Replay.codecs ~range_header_size records;
      Replay.append_force ~range_header_size (first append_force_records records);
      counts;
    ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report ~correct ~attempted ~failed metrics =
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-36s %16.6f %s\n" n v u)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          metrics))

(* Print [failed_frac] and the result line.  [correct] needs every
   transaction committed and checked, and every metric a number. *)
let finish samples metrics =
  let attempted = List.fold_left (fun a s -> a + s.Sample.attempted) 0 samples in
  let committed = List.fold_left (fun a s -> a + s.Sample.committed) 0 samples in
  let failed = attempted - committed in
  Printf.printf "  %-36s %16.6f ratio (%d of %d transactions, %d iterations)\n"
    "failed_frac" (float_of_int failed /. float_of_int (max 1 attempted)) failed
    attempted (List.length samples);
  let correct =
    failed = 0 && metrics <> []
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  report ~correct ~attempted ~failed metrics

(* On a stall, report the finished iterations plus the stranded one as
   failed ([partial] computes the metrics), then end the process and
   every domain it runs. *)
let watchdog w ~partial =
  let t0 = Clock.now_ns () in
  let stalled () =
    let r = Atomic.get running in
    (r <> 0L && Clock.since r > stall_s) || Clock.since t0 > watchdog_s
  in
  ignore
    (Thread.create
       (fun () ->
         while not (stalled ()) do
           Thread.delay 1.0
         done;
         prerr_endline "perfbench: an iteration stalled; counting it as failed";
         let samples =
           finished () @ [ Sample.failed ~setup_s:Float.nan ~attempted:w.attempted ]
         in
         finish samples (partial samples);
         flush stdout;
         Unix._exit 0)
       ())

let () =
  let name = ref "" and seed = ref Oo7_bench.default_seed in
  let seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string name, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 1994)");
      ("--seconds", Arg.Set_int seconds, " measuring time (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad a)) usage;
  if (not (List.mem !name workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    Arg.usage (Arg.align spec) usage;
    exit 2
  end;
  let w = workload !name ~seed:!seed in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d\n" !name !seed
    !seconds !trace;
  watchdog w ~partial:(fun samples ->
      if !trace = 0 then
        end_to_end w samples (List.map (fun s -> s.Sample.setup_s) samples)
      else []);
  let samples, metrics =
    if !trace = 0 then begin
      let samples, setups = timed w ~seconds:(float_of_int !seconds) in
      (samples, end_to_end w samples setups)
    end
    else begin
      let untraced = iteration w 0 in
      Spans.on := true;
      let traced = iteration w 1 in
      let plain_s = w.traverse_plain () in
      Spans.on := false;
      let spans = Spans.all () in
      Spans.write (Printf.sprintf "spans-%s-%d.jsonl" !name !seed) spans;
      let selfs = Spans.self_times spans in
      Printf.printf "  self time by span (traced iteration):\n";
      List.iter
        (fun (n, v) -> Printf.printf "    %-32s %12.6f s\n" n v)
        (self_by_name selfs);
      let samples = [ untraced; traced ] in
      let metrics =
        if List.for_all succeeded samples then
          per_layer ~untraced ~traced ~plain_s selfs
        else []
      in
      (samples, metrics)
    end
  in
  finish samples metrics;
  exit 0
