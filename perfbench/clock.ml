(* The host monotonic clock, and the order statistics the benchmark
   reports.  Nothing here reads the engine's instant ([Proc.now],
   [Cluster.now]): on both backends that is virtual or paced time, not
   what the host spent. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9
let since t0 = seconds_between t0 (now_ns ())

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, since t0)

(* Nearest-rank quantile of the finite values of an unsorted sample;
   [nan] when there are none. *)
let quantile q xs =
  let a = Array.of_list (List.filter Float.is_finite xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

let median xs = quantile 0.5 xs
let minimum xs = quantile 0.0 xs
