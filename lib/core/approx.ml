(* Landmark-sampled social cost; see approx.mli for the contract. *)

module SM = Bbc_prng.Splitmix
module Csr = Bbc_graph.Csr

type estimate = {
  value : float;
  bound : float;
  landmarks : int;
  exact : bool;
}

let parallel_threshold = 64

(* Sum of node costs (and sum of their squares) over [sources]: a fold
   over [Eval.batched_costs].  Each pool pull claims [Csr.pull_min_width]
   landmarks and sweeps them as one window of that many pooled int rows
   — the narrowest window that still takes the bottom-up step, and a
   quarter of the rows a [Csr.batch_width] window keeps live (DESIGN.md
   section 12.2).  Chunk-indexed partial accumulators folded in order
   keep the integer total independent of scheduling and job count. *)
let sampled_sums ?objective ~jobs instance csr sources =
  let l = Array.length sources in
  let chunk = Csr.pull_min_width in
  let nchunks = max 1 ((l + chunk - 1) / chunk) in
  let sum = Array.make nchunks 0 in
  let sumsq = Array.make nchunks 0.0 in
  Bbc_parallel.parallel_for_chunks ~jobs ~chunk 0 l (fun lo hi ->
      let s = ref 0 and sq = ref 0.0 in
      Eval.batched_costs ?objective ~width:chunk instance csr sources lo hi
        ~emit:(fun _ c ->
          s := !s + c;
          sq := !sq +. (float_of_int c *. float_of_int c));
      sum.(lo / chunk) <- !s;
      sumsq.(lo / chunk) <- !sq);
  (Array.fold_left ( + ) 0 sum, Array.fold_left ( +. ) 0.0 sumsq)

let social_cost ?objective ?jobs ~landmarks ~seed instance csr =
  let n = Instance.n instance in
  if Csr.n csr <> n then
    invalid_arg "Approx.social_cost: snapshot size does not match instance";
  if landmarks < 2 then invalid_arg "Approx.social_cost: landmarks must be >= 2";
  let l = min landmarks n in
  let jobs = Bbc_parallel.jobs_for ?jobs ~threshold:parallel_threshold l in
  Bbc_obs.with_span "approx.social_cost"
    ~attrs:
      [ ("n", Bbc_obs.Int n); ("landmarks", Bbc_obs.Int l); ("jobs", Bbc_obs.Int jobs) ]
    (fun () ->
      if l >= n then begin
        (* Full sweep: the estimator degenerates to the exact total. *)
        let sources = Array.init n Fun.id in
        let sum, _ = sampled_sums ?objective ~jobs instance csr sources in
        { value = float_of_int sum; bound = 0.0; landmarks = n; exact = true }
      end
      else begin
        let sources =
          Array.of_list (SM.sample_without_replacement (SM.create seed) l n)
        in
        let sum, sumsq = sampled_sums ?objective ~jobs instance csr sources in
        let lf = float_of_int l and nf = float_of_int n in
        let mean = float_of_int sum /. lf in
        (* Unbiased sample variance of the node costs. *)
        let var = max 0.0 ((sumsq -. (lf *. mean *. mean)) /. (lf -. 1.0)) in
        (* Standard error of the scaled total under sampling without
           replacement: n * sqrt(s^2 / L * (1 - L/n)) — the classic
           SRSWOR estimator with finite-population correction.  Six
           standard errors rather than the textbook four: with few
           landmarks on a skewed cost population the sample can miss
           every outlier, so s^2 underestimates the true variance and
           a tight normal quantile is overconfident. *)
        let se = nf *. sqrt (var /. lf *. (1.0 -. (lf /. nf))) in
        { value = nf *. mean; bound = 6.0 *. se; landmarks = l; exact = false }
      end)
