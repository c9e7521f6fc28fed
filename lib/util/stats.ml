type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* One pass for (count, sum); the fold order matches the obvious
   [List.fold_left ( +. )] so results are bit-identical to it. *)
let count_sum samples =
  List.fold_left (fun (n, s) x -> (n + 1, s +. x)) (0, 0.0) samples

let mean samples =
  assert (samples <> []);
  let n, sum = count_sum samples in
  sum /. float_of_int n

let stddev_around m samples =
  let n, sq =
    List.fold_left
      (fun (n, acc) x -> (n + 1, acc +. ((x -. m) ** 2.0)))
      (0, 0.0) samples
  in
  sqrt (sq /. float_of_int n)

let stddev samples = stddev_around (mean samples) samples

let percentile p sorted =
  let n = Array.length sorted in
  assert (n > 0 && p >= 0.0 && p <= 100.0);
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize samples =
  assert (samples <> []);
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let m = mean samples in
  {
    n = Array.length sorted;
    mean = m;
    stddev = stddev_around m samples;
    min = sorted.(0);
    max = sorted.(Array.length sorted - 1);
    p50 = percentile 50.0 sorted;
    p90 = percentile 90.0 sorted;
    p99 = percentile 99.0 sorted;
  }

let summarize_ints samples = summarize (List.map float_of_int samples)

