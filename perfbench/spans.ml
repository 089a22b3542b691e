(* In-memory spans around the benchmark's own calls into each layer.

   A span has a name, a start and end on the host monotonic clock, the
   span that caused it (0 for a root) and the id of the iteration it
   belongs to.  Spans stay in memory while the workload runs and are
   written out once it ends.  With recording off, [span] runs its body
   with parent id 0 and reads no clock. *)

type t = {
  id : int;
  parent : int;
  run : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let on = ref false
let run = ref 0
let next = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []

let fresh () = if !on then Atomic.fetch_and_add next 1 else 0

(* Record a span whose id was taken with [fresh] (so children could name
   it as their parent before it ended).  Safe from any domain. *)
let record ?(parent = 0) ~id name start_ns stop_ns =
  if id <> 0 then
    let s = { id; parent; run = !run; name; start_ns; stop_ns } in
    Mutex.protect lock (fun () -> recorded := s :: !recorded)

let span ?parent name f =
  if not !on then f 0
  else begin
    let id = fresh () in
    let t0 = Clock.now_ns () in
    let finish () = record ?parent ~id name t0 (Clock.now_ns ()) in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)
let duration s = Clock.seconds_between s.start_ns s.stop_ns

(* Self time: the span's duration minus the part of its interval that
   its children cover (children's union, clipped to the parent). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
        |> List.filter (fun (a, b) -> Int64.compare a b < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = if Int64.compare a upto < 0 then upto else a in
            if Int64.compare a b >= 0 then (acc, upto)
            else (acc +. Clock.seconds_between a b, b))
          (0.0, s.start_ns) kids
      in
      (s, duration s -. covered))
    spans

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"run\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.run s.name s.start_ns s.stop_ns)
    spans;
  close_out oc
