(* Trace explorer CLI: load an LBCF flight dump (oo7-run --trace,
   Cluster.dump_flight, or auto-dumped on strand/crash/oracle failures),
   decode and merge its per-node rings, and print the per-ring
   accounting, the per-stage latency breakdown, the per-lock contention
   table, the critical path of the slowest transaction and the flow
   summary.  --self-check instead validates the dump (for CI); --json
   additionally renders it as a Perfetto-loadable Chrome trace. *)

open Cmdliner
module Explorer = Lbc_obs.Explorer
module Flight_dump = Lbc_obs.Flight_dump

let pp_ns ppf ns =
  let v = float_of_int ns /. 1000.0 in
  if v >= 1000.0 then Format.fprintf ppf "%8.2fms" (v /. 1000.0)
  else Format.fprintf ppf "%8.1fµs" v

let print_events d =
  let merged = Flight_dump.merged d in
  let tally = Hashtbl.create 8 in
  Array.iter
    (fun (ev : Flight_dump.event) ->
      let k = Flight_dump.kind_name ev.Flight_dump.ev_kind in
      Hashtbl.replace tally k
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
    merged;
  Format.printf "merged: %d events" (Array.length merged);
  List.iter
    (fun k ->
      match Hashtbl.find_opt tally k with
      | Some n -> Format.printf ", %d %ss" n k
      | None -> ())
    [ "span"; "instant"; "count"; "flow-start"; "flow-end" ];
  Format.printf "@."

let print_stages d =
  Format.printf "@.== per-stage latency ==@.";
  Format.printf "%-12s %7s %11s %10s %10s %10s %10s@." "stage" "count"
    "total" "p50" "p95" "p99" "max";
  List.iter
    (fun (s : Explorer.stage_stats) ->
      Format.printf "%-12s %7d %a %a %a %a %a@." s.Explorer.st_name
        s.Explorer.st_count pp_ns s.Explorer.st_total_ns pp_ns
        s.Explorer.st_p50_ns pp_ns s.Explorer.st_p95_ns pp_ns
        s.Explorer.st_p99_ns pp_ns s.Explorer.st_max_ns)
    (Explorer.stage_breakdown d)

let print_contention d =
  Format.printf "@.== lock contention ==@.";
  match Explorer.lock_contention d with
  | [] -> Format.printf "no queued lock acquisitions in this trace@."
  | rows ->
      Format.printf "%-8s %7s %10s %12s %12s@." "lock" "waits" "contended"
        "total wait" "max wait";
      List.iter
        (fun (r : Explorer.lock_stats) ->
          Format.printf "l%-7d %7d %10d %a %a@." r.Explorer.lk_lock
            r.Explorer.lk_waits r.Explorer.lk_contended pp_ns
            r.Explorer.lk_total_wait_ns pp_ns r.Explorer.lk_max_wait_ns)
        rows

let print_critical_path d =
  Format.printf "@.== critical path (slowest transaction) ==@.";
  match Explorer.critical_path d with
  | None -> Format.printf "no txn spans in this trace@."
  | Some (txn, inside) ->
      let start = Explorer.span_start txn and dur = txn.Flight_dump.ev_dur_ns in
      Format.printf "txn on node %d: start %.1fµs, duration %a@."
        txn.Flight_dump.ev_ring
        (float_of_int start /. 1000.0)
        pp_ns dur;
      let accounted = ref 0 in
      List.iter
        (fun (ev : Flight_dump.event) ->
          if ev.Flight_dump.ev_lane = Lbc_obs.Obs.lane_txn then
            accounted := !accounted + ev.Flight_dump.ev_dur_ns;
          Format.printf "  +%a %-10s %a%s@." pp_ns
            (Explorer.span_start ev - start)
            ev.Flight_dump.ev_name pp_ns ev.Flight_dump.ev_dur_ns
            (match Explorer.lock_of ev with
            | Some l -> Printf.sprintf "  (lock %d)" l
            | None -> ""))
        inside;
      if dur > 0 then
        Format.printf "accounted inside txn lane: %a (%.0f%%)@." pp_ns
          !accounted
          (100.0 *. float_of_int !accounted /. float_of_int dur)

let print_flows d =
  let f = Explorer.flow_summary d in
  Format.printf
    "@.flows: %d committed writes broadcast, %d applies bound to them@."
    f.Explorer.fl_starts f.Explorer.fl_ends;
  if f.Explorer.fl_unresolved > 0 then
    Format.printf "!! %d flow heads without a matching start@."
      f.Explorer.fl_unresolved

let run file self_check json_out =
  match Flight_dump.read file with
  | Error why ->
      Format.eprintf "%s: %s@." file why;
      exit 2
  | Ok d ->
      let problems = Explorer.self_check d in
      if self_check then begin
        match problems with
        | [] ->
            let f = Explorer.flow_summary d in
            Format.printf
              "%s: OK (%d rings, %d events, clock %s, %d flow starts, %d \
               flow ends)@."
              file
              (Array.length d.Flight_dump.d_rings)
              (Array.length (Flight_dump.merged d))
              d.Flight_dump.d_clock f.Explorer.fl_starts f.Explorer.fl_ends;
            exit 0
        | errors ->
            List.iter (fun e -> Format.eprintf "%s: %s@." file e) errors;
            exit 1
      end
      else begin
        Flight_dump.pp_summary Format.std_formatter d;
        print_events d;
        print_stages d;
        print_contention d;
        print_critical_path d;
        print_flows d;
        if problems <> [] then
          Format.printf "!! %d self-check problems (details with --self-check)@."
            (List.length problems);
        match json_out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Flight_dump.render_chrome d);
            close_out oc;
            Format.printf
              "merged Chrome trace written to %s (load in Perfetto)@." path
        | None -> ()
      end

let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP"
         ~doc:"Binary LBCF flight dump: $(b,oo7-run --trace), \
               $(b,Cluster.dump_flight), or an automatic failure dump.")

let self_check =
  Arg.(value & flag & info [ "self-check" ]
         ~doc:"Validate the dump instead of reporting.  Structure: clean \
               record decode, interned-id closure, per-ring timestamp \
               monotonicity, non-negative durations and drop accounting \
               (recorded = dropped + decoded).  Semantics, over the window \
               every ring still covers: every flow end has a start that is \
               not after it, and falls inside an apply span on its node.  \
               Exit 0 if clean, 1 otherwise.")

let json_out =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Additionally write the merged rings as a Perfetto-loadable \
               Chrome trace-event file at $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "lbc-trace"
       ~doc:"Explore a trace of the coherency pipeline"
       ~man:
         [ `S Manpage.s_description;
           `P "Decodes a binary LBCF flight dump (written by $(b,oo7-run \
               --trace), $(b,Cluster.dump_flight), or automatically on \
               strand/crash/oracle failures), merges its per-node rings \
               into one timeline, and prints per-ring accounting, a \
               per-stage latency breakdown (p50/p95/p99 of span \
               durations), a per-lock contention table, the critical path \
               of the slowest transaction and a flow-arrow summary.  \
               $(b,--json) converts the dump for Perfetto." ])
    Term.(const run $ file $ self_check $ json_out)

let () = exit (Cmd.eval cmd)
