(* Trace explorer: analyses a decoded flight dump ({!Flight_dump}) and
   derives what the [lbc_trace] CLI prints — the semantic self-check,
   per-stage latency breakdown, per-lock contention, the critical path
   of the slowest transaction, and the flow summary.  All times are the
   dump's integer nanoseconds; a span event carries its END time, so
   its start is [ev_ts_ns - ev_dur_ns]. *)

module FD = Flight_dump

let spans d =
  Array.to_list (FD.merged d)
  |> List.filter (fun (ev : FD.event) -> ev.FD.ev_kind = FD.Span)

let span_start (ev : FD.event) = ev.FD.ev_ts_ns - ev.FD.ev_dur_ns

(* The lock a span waited on: the only span argument any analysis
   reads, recorded on [lock.wait] and [interlock]. *)
let lock_of (ev : FD.event) =
  match ev.FD.ev_name with
  | "lock.wait" | "interlock" -> Some ev.FD.ev_arg
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Self-check *)

(* Start of the window every ring still covers: the newest among the
   oldest surviving events of the rings that dropped any (a ring that
   dropped nothing covers the whole run).  Before it, a flow's start
   may have been evicted by ring wrap, so the flow checks skip ends
   that fall there.  [min_int] when nothing was dropped. *)
let window_start d =
  Array.fold_left
    (fun w r ->
      if r.FD.r_dropped > 0 && Array.length r.FD.r_events > 0 then
        max w r.FD.r_events.(0).FD.ev_ts_ns
      else w)
    min_int d.FD.d_rings

(* Earliest start timestamp of each flow id. *)
let flow_starts events =
  let starts = Hashtbl.create 64 in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Flow_start && not (Hashtbl.mem starts ev.FD.ev_arg)
      then Hashtbl.replace starts ev.FD.ev_arg ev.FD.ev_ts_ns)
    events;
  starts

(* The structural checks of {!Flight_dump.self_check}, then the
   semantic ones over the covered window: every flow end has its start,
   the start is not after the end, and the end falls inside an apply
   span on its node.  Returns violation descriptions (empty = clean). *)
let self_check d =
  let errors = ref (List.rev (FD.self_check d)) in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let events = FD.merged d in
  let starts = flow_starts events in
  let applies = Hashtbl.create 8 in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Span && ev.FD.ev_name = "apply" then
        Hashtbl.add applies ev.FD.ev_ring (span_start ev, ev.FD.ev_ts_ns))
    events;
  let from = window_start d in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Flow_end && ev.FD.ev_ts_ns >= from then begin
        let id = ev.FD.ev_arg and node = ev.FD.ev_ring and ts = ev.FD.ev_ts_ns in
        (match Hashtbl.find_opt starts id with
        | None -> err "flow %d ends on node %d with no start" id node
        | Some s when s > ts ->
            err "flow %d starts at %dns after its end at %dns" id s ts
        | Some _ -> ());
        if
          not
            (List.exists
               (fun (lo, hi) -> lo <= ts && ts <= hi)
               (Hashtbl.find_all applies node))
        then err "flow %d ends on node %d outside any apply span" id node
      end)
    events;
  List.rev !errors

(* ---------------------------------------------------------------- *)
(* Per-stage latency breakdown from span durations. *)

type stage_stats = {
  st_name : string;
  st_count : int;
  st_total_ns : int;
  st_p50_ns : int;
  st_p95_ns : int;
  st_p99_ns : int;
  st_max_ns : int;
}

let exact_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. Float.of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let stage_breakdown d =
  let by_name : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : FD.event) ->
      match Hashtbl.find_opt by_name ev.FD.ev_name with
      | Some l -> l := ev.FD.ev_dur_ns :: !l
      | None -> Hashtbl.replace by_name ev.FD.ev_name (ref [ ev.FD.ev_dur_ns ]))
    (spans d);
  Hashtbl.fold
    (fun name durs acc ->
      let a = Array.of_list !durs in
      Array.sort Int.compare a;
      { st_name = name;
        st_count = Array.length a;
        st_total_ns = Array.fold_left ( + ) 0 a;
        st_p50_ns = exact_percentile a 50.0;
        st_p95_ns = exact_percentile a 95.0;
        st_p99_ns = exact_percentile a 99.0;
        st_max_ns = a.(Array.length a - 1) }
      :: acc)
    by_name []
  |> List.sort (fun a b -> Int.compare b.st_total_ns a.st_total_ns)

(* ---------------------------------------------------------------- *)
(* Per-lock contention from lock.wait spans. *)

type lock_stats = {
  lk_lock : int;
  lk_waits : int;
  lk_contended : int;      (* waits with nonzero duration *)
  lk_total_wait_ns : int;
  lk_max_wait_ns : int;
}

let lock_contention d =
  let by_lock : (int, lock_stats) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_name = "lock.wait" then begin
        let lock = ev.FD.ev_arg and dur = ev.FD.ev_dur_ns in
        let st =
          match Hashtbl.find_opt by_lock lock with
          | Some st -> st
          | None ->
              { lk_lock = lock; lk_waits = 0; lk_contended = 0;
                lk_total_wait_ns = 0; lk_max_wait_ns = 0 }
        in
        Hashtbl.replace by_lock lock
          { st with
            lk_waits = st.lk_waits + 1;
            lk_contended = (st.lk_contended + if dur > 0 then 1 else 0);
            lk_total_wait_ns = st.lk_total_wait_ns + dur;
            lk_max_wait_ns = max st.lk_max_wait_ns dur }
      end)
    (spans d);
  Hashtbl.fold (fun _ st acc -> st :: acc) by_lock []
  |> List.sort (fun a b -> Int.compare b.lk_total_wait_ns a.lk_total_wait_ns)

(* ---------------------------------------------------------------- *)
(* Critical path: the slowest txn span, plus every span on the same
   node that lies within it, in start order — the per-stage story of
   where that transaction's time went. *)

let critical_path d =
  let spans = spans d in
  let slowest =
    List.fold_left
      (fun acc (ev : FD.event) ->
        if ev.FD.ev_name <> "txn" then acc
        else
          match acc with
          | Some (best : FD.event) when best.FD.ev_dur_ns >= ev.FD.ev_dur_ns ->
              acc
          | _ -> Some ev)
      None spans
  in
  Option.map
    (fun (txn : FD.event) ->
      let lo = span_start txn and hi = txn.FD.ev_ts_ns in
      let inside =
        List.filter
          (fun (ev : FD.event) ->
            ev != txn && ev.FD.ev_ring = txn.FD.ev_ring
            && span_start ev >= lo && ev.FD.ev_ts_ns <= hi)
          spans
        |> List.stable_sort (fun a b -> Int.compare (span_start a) (span_start b))
      in
      (txn, inside))
    slowest

(* ---------------------------------------------------------------- *)
(* Flow accounting, for reporting how many committed writes were
   traced end-to-end.  Unresolved heads are counted over the covered
   window only, as in {!self_check}. *)

type flow_summary = { fl_starts : int; fl_ends : int; fl_unresolved : int }

let flow_summary d =
  let events = FD.merged d in
  let starts = flow_starts events in
  let from = window_start d in
  let ends = ref 0 and unresolved = ref 0 in
  Array.iter
    (fun (ev : FD.event) ->
      if ev.FD.ev_kind = FD.Flow_end then begin
        incr ends;
        if ev.FD.ev_ts_ns >= from && not (Hashtbl.mem starts ev.FD.ev_arg) then
          incr unresolved
      end)
    events;
  { fl_starts = Hashtbl.length starts; fl_ends = !ends;
    fl_unresolved = !unresolved }
