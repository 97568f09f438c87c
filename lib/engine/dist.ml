type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Lognormal of { mu : float; sigma : float }
  | Bimodal of { p : float; lo : float; hi : float }
  | Pareto of { shape : float; scale : float }
  | Mixture of (float * t) list
  | Shifted of float * t
  | Zipf of { cdf : float array; mean_rank : float }

let constant x = Constant x

let uniform ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  Uniform { lo; hi }

let exponential ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  Exponential { mean }

(* Standard normal quantile for p = 0.999: z such that Phi(z) = 0.999. *)
let z_p999 = 3.090232306167813

let lognormal_of_quantiles ~p50 ~p999 =
  if p50 <= 0. || p999 <= p50 then
    invalid_arg "Dist.lognormal_of_quantiles: need 0 < p50 < p999";
  let mu = Float.log p50 in
  let sigma = (Float.log p999 -. mu) /. z_p999 in
  Lognormal { mu; sigma }

let bimodal ~p ~lo ~hi =
  if p < 0. || p > 1. then invalid_arg "Dist.bimodal: p must be in [0,1]";
  Bimodal { p; lo; hi }

let pareto ~shape ~scale =
  if shape <= 0. || scale <= 0. then
    invalid_arg "Dist.pareto: shape and scale must be positive";
  Pareto { shape; scale }

let mixture parts =
  if parts = [] then invalid_arg "Dist.mixture: empty";
  if List.exists (fun (w, _) -> w < 0.) parts then
    invalid_arg "Dist.mixture: negative weight";
  Mixture parts

let shifted off d = Shifted (off, d)

(* CDF over ranks 0..n-1 with weight (r+1)^-s, normalized; a sample is
   one uniform draw plus a binary search. O(n) to build and never
   mutated, so one table per (s, n) serves every caller on any domain. *)
let build_zipf ~s ~n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) s);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  let mean_rank = ref 0. in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total;
    let w = 1. /. Float.pow (float_of_int (r + 1)) s /. total in
    mean_rank := !mean_rank +. (float_of_int r *. w)
  done;
  Zipf { cdf; mean_rank = !mean_rank }

(* A fleet builds the same table for every point, on whichever domain
   runs it; the lock makes a second caller wait for the first's build. *)
let zipf_memo : ((float * int) * t) list ref = ref []
let zipf_mu = Mutex.create ()

let zipf ~s ~n =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  if s < 0. then invalid_arg "Dist.zipf: s must be >= 0";
  Mutex.protect zipf_mu (fun () ->
      match
        List.find_opt
          (fun ((s', n'), _) -> Float.equal s s' && n = n')
          !zipf_memo
      with
      | Some (_, d) -> d
      | None ->
          let d = build_zipf ~s ~n in
          zipf_memo := ((s, n), d) :: !zipf_memo;
          d)

let normal rng =
  let rec draw () =
    let u = Rng.float rng in
    if u <= 0. then draw () else u
  in
  let u1 = draw () and u2 = Rng.float rng in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let rec sample d rng =
  match d with
  | Constant x -> x
  | Uniform { lo; hi } -> lo +. ((hi -. lo) *. Rng.float rng)
  | Exponential { mean } ->
      let rec draw () =
        let u = Rng.float rng in
        if u <= 0. then draw () else u
      in
      -.mean *. Float.log (draw ())
  | Lognormal { mu; sigma } -> Float.exp (mu +. (sigma *. normal rng))
  | Bimodal { p; lo; hi } -> if Rng.float rng < p then hi else lo
  | Pareto { shape; scale } ->
      let rec draw () =
        let u = Rng.float rng in
        if u <= 0. then draw () else u
      in
      scale /. Float.pow (draw ()) (1. /. shape)
  | Mixture parts ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. parts in
      let x = Rng.float rng *. total in
      let rec pick acc = function
        | [] -> assert false
        | [ (_, d) ] -> d
        | (w, d) :: rest -> if x < acc +. w then d else pick (acc +. w) rest
      in
      sample (pick 0. parts) rng
  | Shifted (off, d) -> off +. sample d rng
  | Zipf { cdf; _ } ->
      let u = Rng.float rng in
      (* Smallest rank whose cumulative mass covers u. *)
      let lo = ref 0 and hi = ref (Array.length cdf - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      float_of_int !lo

let rec mean = function
  | Constant x -> x
  | Uniform { lo; hi } -> (lo +. hi) /. 2.
  | Exponential { mean = m } -> m
  | Lognormal { mu; sigma } -> Float.exp (mu +. (sigma *. sigma /. 2.))
  | Bimodal { p; lo; hi } -> ((1. -. p) *. lo) +. (p *. hi)
  | Pareto { shape; scale } ->
      if shape <= 1. then infinity else shape *. scale /. (shape -. 1.)
  | Mixture parts ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. parts in
      List.fold_left (fun acc (w, d) -> acc +. (w /. total *. mean d)) 0. parts
  | Shifted (off, d) -> off +. mean d
  | Zipf { mean_rank; _ } -> mean_rank
