(* Per-domain buffer pools; see workspace.mli for the contract. *)

type t = {
  mutable row_len : int;
  mutable free : int array array; (* stack of clean rows, [0 .. nfree) live *)
  mutable nfree : int;
  scratch : Csr.scratch;
}

let obs_acquires = Bbc_obs.counter "workspace.acquires"
let obs_alloc = Bbc_obs.counter "workspace.row_allocs"

let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        row_len = 0;
        free = [||];
        nfree = 0;
        scratch = Csr.create_scratch ();
      })

let get () = Domain.DLS.get key

let scratch ws = ws.scratch

let acquire ws n =
  Bbc_obs.incr obs_acquires;
  if ws.row_len <> n then begin
    (* Different instance size: the pooled rows no longer fit. *)
    ws.free <- [||];
    ws.nfree <- 0;
    ws.row_len <- n
  end;
  if ws.nfree > 0 then begin
    ws.nfree <- ws.nfree - 1;
    ws.free.(ws.nfree)
  end
  else begin
    Bbc_obs.incr obs_alloc;
    Array.make n Csr.unreachable
  end

let release_clean ws row =
  if Array.length row = ws.row_len then begin
    if ws.nfree = Array.length ws.free then begin
      let grown = Array.make (max 8 (2 * ws.nfree)) [||] in
      Array.blit ws.free 0 grown 0 ws.nfree;
      ws.free <- grown
    end;
    ws.free.(ws.nfree) <- row;
    ws.nfree <- ws.nfree + 1
  end

let release ws row =
  Array.fill row 0 (Array.length row) Csr.unreachable;
  release_clean ws row

let pooled ws = ws.nfree

(* Batched acquisition for the MS-BFS consumers: one call per
   bit-parallel window instead of one per source. *)

let acquire_many ws n k = Array.init k (fun _ -> acquire ws n)
let release_clean_many ws rows = Array.iter (release_clean ws) rows
