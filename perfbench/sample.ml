(* Raw samples and the statistics the benchmark reports from them.

   Every percentile is nearest-rank over the kept samples.  The program's
   own histograms (Obs.Metrics, Lab.Loadgen) bucket values 2^(1/4) apart,
   which alone would move a percentile by up to ~19% between runs; the
   benchmark never reads a percentile off them. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 256 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len

let values t = Array.sub t.data 0 t.len

let concat ts =
  let all = create () in
  List.iter (fun t -> for i = 0 to t.len - 1 do add all t.data.(i) done) ts;
  all

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do s := !s +. t.data.(i) done;
  !s

let mean t = if t.len = 0 then nan else sum t /. float_of_int t.len

(* Nearest rank: the smallest sample with at least [p * n] samples at or
   below it. *)
let percentile t p =
  if t.len = 0 then nan
  else begin
    let a = values t in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int t.len)) in
    a.(max 0 (min (t.len - 1) (rank - 1)))
  end

(* Samples strictly beyond the [p] percentile: the guide's "at least ten
   beyond" rule is checked against this. *)
let beyond t p =
  let v = percentile t p in
  let n = ref 0 in
  for i = 0 to t.len - 1 do if t.data.(i) > v then incr n done;
  !n

let median_of xs =
  let t = create () in
  List.iter (add t) xs;
  percentile t 0.5
