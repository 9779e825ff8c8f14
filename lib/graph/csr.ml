let unreachable = max_int

type t = {
  n : int;
  offsets : int array; (* length n + 1; row u = targets.(offsets.(u) .. offsets.(u+1) - 1) *)
  targets : int array;
  lengths : int array;
  unit_lengths : bool;
  max_length : int; (* longest edge, 0 on an edgeless snapshot *)
}

let n t = t.n
let edge_count t = t.offsets.(t.n)
let unit_lengths t = t.unit_lengths

let equal a b =
  a.n = b.n && a.unit_lengths = b.unit_lengths && a.max_length = b.max_length && a.offsets = b.offsets
  && a.targets = b.targets && a.lengths = b.lengths

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

type builder = {
  b_n : int;
  b_offsets : int array;
  mutable b_targets : int array;
  mutable b_lengths : int array;
  mutable b_cur : int; (* current source row *)
  mutable b_pos : int; (* next free edge slot *)
  mutable b_unit : bool;
  mutable b_max : int;
}

let builder ~n ~m =
  if n < 0 then invalid_arg "Csr.builder: negative size";
  if m < 0 then invalid_arg "Csr.builder: negative edge count";
  {
    b_n = n;
    b_offsets = Array.make (n + 1) 0;
    b_targets = Array.make (max m 1) 0;
    b_lengths = Array.make (max m 1) 0;
    b_cur = 0;
    b_pos = 0;
    b_unit = true;
    b_max = 0;
  }

let add b u v len =
  if u < b.b_cur then invalid_arg "Csr.add: sources must be non-decreasing";
  if u >= b.b_n || v < 0 || v >= b.b_n then invalid_arg "Csr.add: vertex out of range";
  if b.b_pos >= Array.length b.b_targets then invalid_arg "Csr.add: more edges than declared";
  if len < 0 then invalid_arg "Csr.add: negative length";
  while b.b_cur < u do
    b.b_cur <- b.b_cur + 1;
    b.b_offsets.(b.b_cur) <- b.b_pos
  done;
  b.b_targets.(b.b_pos) <- v;
  b.b_lengths.(b.b_pos) <- len;
  b.b_pos <- b.b_pos + 1;
  if len <> 1 then b.b_unit <- false;
  if len > b.b_max then b.b_max <- len

let finish b =
  while b.b_cur < b.b_n do
    b.b_cur <- b.b_cur + 1;
    b.b_offsets.(b.b_cur) <- b.b_pos
  done;
  let targets, lengths =
    if b.b_pos = Array.length b.b_targets then (b.b_targets, b.b_lengths)
    else (Array.sub b.b_targets 0 b.b_pos, Array.sub b.b_lengths 0 b.b_pos)
  in
  { n = b.b_n; offsets = b.b_offsets; targets; lengths; unit_lengths = b.b_unit; max_length = b.b_max }

let of_digraph g =
  let n = Digraph.n g in
  let b = builder ~n ~m:(Digraph.edge_count g) in
  for u = 0 to n - 1 do
    Digraph.iter_out g u (fun v len -> add b u v len)
  done;
  finish b

(* A fresh snapshot, three blits of the old one around [u]'s new row:
   the old snapshot is untouched, so sweeps still running on it (or a
   transpose cached against it) stay valid. *)
let with_row t u ~targets ~lengths =
  let n = t.n in
  if u < 0 || u >= n then invalid_arg "Csr.with_row: vertex out of range";
  let d = Array.length targets in
  if Array.length lengths <> d then invalid_arg "Csr.with_row: targets and lengths differ in length";
  Array.iter (fun v -> if v < 0 || v >= n then invalid_arg "Csr.with_row: vertex out of range") targets;
  Array.iter (fun l -> if l < 0 then invalid_arg "Csr.with_row: negative length") lengths;
  let lo = t.offsets.(u) and hi = t.offsets.(u + 1) in
  let m = t.offsets.(n) in
  let shift = d - (hi - lo) in
  let offsets = Array.make (n + 1) 0 in
  Array.blit t.offsets 0 offsets 0 (u + 1);
  for w = u + 1 to n do
    offsets.(w) <- t.offsets.(w) + shift
  done;
  let splice old row =
    let a = Array.make (m + shift) 0 in
    Array.blit old 0 a 0 lo;
    Array.blit row 0 a lo d;
    Array.blit old hi a (lo + d) (m - hi);
    a
  in
  let lengths' = splice t.lengths lengths in
  let is_unit = Array.for_all (fun l -> l = 1) in
  (* Every other row of a unit snapshot is unit, so the new row decides;
     a weighted one may have lost its last non-unit edge with the old
     row, so every length is checked again. *)
  let unit_lengths = if t.unit_lengths then is_unit lengths else is_unit lengths' in
  (* Likewise the old row may have held the longest edge. *)
  let row_max = Array.fold_left Int.max 0 lengths in
  let max_length =
    if row_max >= t.max_length then row_max else Array.fold_left Int.max 0 lengths'
  in
  { n; offsets; targets = splice t.targets targets; lengths = lengths'; unit_lengths; max_length }

(* ------------------------------------------------------------------ *)
(* Kernels.                                                            *)

type scratch = {
  heap : Binary_heap.t;
  mutable touched : int array; (* vertices written by the last sweep *)
  mutable ntouched : int;
  (* Multi-source bit-parallel state (see the MS-BFS kernels below).
     [seen]/[front]/[next_front] are per-vertex source bitmaps, kept
     all-zero between sweeps (each sweep self-cleans on exit via the
     dirty list).  [cur_list]/[next_list] are the frontier vertex
     lists; the two bitmap arrays and the two lists swap roles every
     level. *)
  mutable seen : int array;
  mutable front : int array;
  mutable next_front : int array;
  mutable cur_list : int array;
  mutable next_list : int array;
  (* The arrival ring of weighted windows (see the bucketed kernel
     below): per slot, a per-vertex source bitmap and the list of
     vertices whose bitmap is non-zero.  All bitmaps are zero and all
     lists empty between sweeps. *)
  mutable ring_pend : int array array;
  mutable ring_list : int array array;
  mutable ring_len : int array;
  mutable ring_spare : int array; (* the list a drained slot swaps in *)
  mutable dl_covers_batch : bool;
      (* whether the dirty list covers every row of the last batched
         call (false after a scalar or multi-window batch, where only
         the final sweep's writes are recorded) *)
  (* Reverse adjacency for the bottom-up direction, built lazily on the
     first dense frontier and cached per snapshot (physical equality —
     consumers sweep one immutable snapshot many times). *)
  mutable rev_key : t option;
  mutable rev_offsets : int array;
  mutable rev_targets : int array;
}

let create_scratch () =
  {
    heap = Binary_heap.create ~capacity:16 ();
    touched = [||];
    ntouched = 0;
    seen = [||];
    front = [||];
    next_front = [||];
    cur_list = [||];
    next_list = [||];
    ring_pend = [||];
    ring_list = [||];
    ring_len = [||];
    ring_spare = [||];
    dl_covers_batch = false;
    rev_key = None;
    rev_offsets = [||];
    rev_targets = [||];
  }

let ensure s n =
  if Array.length s.touched < n then s.touched <- Array.make n 0;
  s.ntouched <- 0;
  s.dl_covers_batch <- false

let touch s v =
  s.touched.(s.ntouched) <- v;
  s.ntouched <- s.ntouched + 1

let reset s dist =
  for i = 0 to s.ntouched - 1 do
    dist.(s.touched.(i)) <- unreachable
  done;
  s.ntouched <- 0

(* [ban] excludes one vertex's out-edges from the traversal: sweeping
   the full snapshot with [~ban:u] from any source computes exactly the
   distances of G_{-u} — the best-response shape — without building a
   per-node CSR. *)

(* The dirty list is the BFS queue: [ensure] empties it, and every
   vertex is appended once, when its distance is set, so the sweep
   visits [touched.(0 .. ntouched-1)] in order and never wraps. *)
let bfs ?(ban = -1) t s ~src ~dist =
  ensure s t.n;
  let queue = s.touched in
  let offsets = t.offsets and targets = t.targets in
  dist.(src) <- 0;
  touch s src;
  let head = ref 0 in
  while !head < s.ntouched do
    let u = queue.(!head) in
    incr head;
    if u <> ban then begin
      let du = dist.(u) + 1 in
      for e = offsets.(u) to offsets.(u + 1) - 1 do
        let v = targets.(e) in
        if dist.(v) = unreachable then begin
          dist.(v) <- du;
          touch s v
        end
      done
    end
  done

let dijkstra ?(ban = -1) t s ~src ~dist =
  ensure s t.n;
  let heap = s.heap in
  Binary_heap.clear heap;
  let offsets = t.offsets and targets = t.targets and lengths = t.lengths in
  dist.(src) <- 0;
  touch s src;
  Binary_heap.push heap 0 src;
  while not (Binary_heap.is_empty heap) do
    let d = Binary_heap.min_priority heap in
    let u = Binary_heap.pop_min heap in
    (* Lazy deletion: skip entries that were superseded. *)
    if d = dist.(u) && u <> ban then
      for e = offsets.(u) to offsets.(u + 1) - 1 do
        let v = targets.(e) in
        let nd = d + lengths.(e) in
        if nd < dist.(v) then begin
          if dist.(v) = unreachable then touch s v;
          dist.(v) <- nd;
          Binary_heap.push heap nd v
        end
      done
  done

let sssp ?ban t s ~src ~dist =
  if t.unit_lengths then bfs ?ban t s ~src ~dist else dijkstra ?ban t s ~src ~dist

(* ------------------------------------------------------------------ *)
(* Multi-source bit-parallel BFS (MS-BFS).

   Unit-length sweeps from up to [batch_width] sources share one
   traversal: per-vertex bitmaps replace the visited flag, bit [b]
   standing for source [srcs.(b)].  Each level walks the adjacency
   once for every source whose frontier reaches it, so the graph is
   read once per *batch* instead of once per source.  OCaml's native
   int has [Sys.int_size] = 63 usable bits on 64-bit; we keep the top
   bit clear ([batch_width] = 62) so masks stay non-negative and the
   lowest-bit extraction below needs no sign special-cases.

   In windows of at least [pull_min_width] sources, dense frontiers
   flip to a bottom-up (pull) pass over the reverse adjacency (Beamer's
   direction-optimizing BFS): every not-fully-seen vertex scans its
   in-neighbours, exiting early once all its missing source bits are
   found.  The transpose is built lazily and cached in the scratch
   keyed by physical equality of the snapshot, so a consumer sweeping
   one snapshot window after window builds it once.  Narrower windows
   never pull, and so never build it: with few bits per mask the pull
   pass's O(n + m) scan finds little per vertex, and a snapshot swept by
   one narrow window (a best-response prefetch on a walk's snapshot)
   would pay the whole transpose for it.

   Weighted snapshots get the bucketed variant further down. *)

let batch_width = Sys.int_size - 1

(* The narrowest window that may take a bottom-up step (DESIGN.md
   section 16.2 has the measured crossover). *)
let pull_min_width = 16

(* Lowest-bit index by perfect hash: powers of two are distinct mod 67
   (2 is a primitive root mod 67), so [(1 lsl i) mod 67] maps bit
   positions 0..61 injectively into a 67-entry table. *)
let bit_index =
  let tbl = Array.make 67 (-1) in
  for i = 0 to batch_width - 1 do
    tbl.((1 lsl i) mod 67) <- i
  done;
  tbl

(* The bitmap arrays carry a self-cleaning invariant: all-zero between
   sweeps (each window zeroes exactly what it set on the way out), so
   growth is the only O(n) event. *)
let ensure_batch s n =
  ensure s n;
  if Array.length s.seen < n then begin
    s.seen <- Array.make n 0;
    s.front <- Array.make n 0;
    s.next_front <- Array.make n 0;
    s.cur_list <- Array.make n 0;
    s.next_list <- Array.make n 0
  end

let ensure_rev t s =
  match s.rev_key with
  | Some key when key == t -> ()
  | _ ->
      let n = t.n and targets = t.targets in
      let m = t.offsets.(n) in
      let roffs = Array.make (n + 1) 0 in
      for e = 0 to m - 1 do
        let w = targets.(e) in
        roffs.(w + 1) <- roffs.(w + 1) + 1
      done;
      for w = 1 to n do
        roffs.(w) <- roffs.(w) + roffs.(w - 1)
      done;
      let cursor = Array.copy roffs in
      let rtgts = Array.make (max m 1) 0 in
      for u = 0 to n - 1 do
        for e = t.offsets.(u) to t.offsets.(u + 1) - 1 do
          let w = targets.(e) in
          rtgts.(cursor.(w)) <- u;
          cursor.(w) <- cursor.(w) + 1
        done
      done;
      s.rev_offsets <- roffs;
      s.rev_targets <- rtgts;
      s.rev_key <- Some t

(* One window: hop distances from sources [srcs.(soff .. soff+k-1)]
   into [rows.(roff .. roff+k-1)] (clean, length >= n each).  Assumes
   [ensure_batch] ran and k <= batch_width.  Leaves the dirty list
   covering every vertex any source reached. *)
let msbfs_window ~ban t s ~srcs ~soff ~k ~rows ~roff =
  let n = t.n in
  let offsets = t.offsets and targets = t.targets in
  let m = offsets.(n) in
  let seen = s.seen in
  let full = if k = batch_width then max_int else (1 lsl k) - 1 in
  let pull = k >= pull_min_width in
  let fr = ref s.front and nf = ref s.next_front in
  let cl = ref s.cur_list and nl = ref s.next_list in
  let cn = ref 0 and ce = ref 0 in
  for b = 0 to k - 1 do
    let v = srcs.(soff + b) in
    let bit = 1 lsl b in
    if seen.(v) = 0 then touch s v;
    seen.(v) <- seen.(v) lor bit;
    if (!fr).(v) = 0 then begin
      (!cl).(!cn) <- v;
      incr cn;
      ce := !ce + offsets.(v + 1) - offsets.(v)
    end;
    (!fr).(v) <- (!fr).(v) lor bit;
    rows.(roff + b).(v) <- 0
  done;
  let d = ref 0 in
  while !cn > 0 do
    let d' = !d + 1 in
    let frA = !fr and nfA = !nf and clA = !cl and nlA = !nl in
    let nn = ref 0 and ne = ref 0 in
    (* Pull pays once the frontier touches a constant fraction of the
       edges: the pass is O(n + m) with early exit per vertex, versus
       O(frontier out-edges) for push.  8 is Beamer's alpha, untuned. *)
    if pull && !ce * 8 > m then begin
      ensure_rev t s;
      let roffs = s.rev_offsets and rtgts = s.rev_targets in
      for w = 0 to n - 1 do
        let miss = full land lnot seen.(w) in
        if miss <> 0 then begin
          let acc = ref 0 in
          let e = ref roffs.(w) in
          let stop = roffs.(w + 1) in
          while !e < stop && !acc land miss <> miss do
            let v = rtgts.(!e) in
            if v <> ban then acc := !acc lor frA.(v);
            incr e
          done;
          let add = !acc land miss in
          if add <> 0 then begin
            if seen.(w) = 0 then touch s w;
            seen.(w) <- seen.(w) lor add;
            nfA.(w) <- add;
            nlA.(!nn) <- w;
            incr nn;
            ne := !ne + offsets.(w + 1) - offsets.(w);
            let mm = ref add in
            while !mm <> 0 do
              let bit = !mm land - !mm in
              rows.(roff + bit_index.(bit mod 67)).(w) <- d';
              mm := !mm lxor bit
            done
          end
        end
      done
    end
    else
      for i = 0 to !cn - 1 do
        let u = clA.(i) in
        if u <> ban then begin
          let fu = frA.(u) in
          for e = offsets.(u) to offsets.(u + 1) - 1 do
            let w = targets.(e) in
            let add = fu land lnot seen.(w) in
            if add <> 0 then begin
              if seen.(w) = 0 then touch s w;
              seen.(w) <- seen.(w) lor add;
              if nfA.(w) = 0 then begin
                nlA.(!nn) <- w;
                incr nn;
                ne := !ne + offsets.(w + 1) - offsets.(w)
              end;
              nfA.(w) <- nfA.(w) lor add;
              let mm = ref add in
              while !mm <> 0 do
                let bit = !mm land - !mm in
                rows.(roff + bit_index.(bit mod 67)).(w) <- d';
                mm := !mm lxor bit
              done
            end
          done
        end
      done;
    for i = 0 to !cn - 1 do
      frA.(clA.(i)) <- 0
    done;
    fr := nfA;
    nf := frA;
    cl := nlA;
    nl := clA;
    cn := !nn;
    ce := !ne;
    d := d'
  done;
  (* Self-clean: both frontier bitmaps are already zero (cleared level
     by level); [seen] is zeroed through the dirty list, which stays
     intact for [reset_rows]. *)
  for i = 0 to s.ntouched - 1 do
    seen.(s.touched.(i)) <- 0
  done

(* ------------------------------------------------------------------ *)
(* Multi-source bit-parallel sweeps on weighted snapshots.

   Sources of one window advance one shared clock (Dial's bucketed
   Dijkstra, one bit per source).  Settling vertex [w] at time [t] for
   the source set [m] sends [m] minus the sources that already settled
   [x] along every edge [(w, x, l)], to arrive at time [t + l].  Every
   pending arrival lies within [t, t + max_length], so a ring of
   [max_length + 1] slots holds them: slot [i] holds, per vertex, the
   sources arriving there at the one time congruent to [i], and the list
   of vertices with a non-zero bitmap.  Each source's bits follow Dial's
   algorithm exactly (a vertex is settled by a source at the earliest
   time one of its arrivals comes due), so every row equals its scalar
   sweep bit for bit.

   Zero-length edges are legal: an arrival can land in the slot being
   drained, so a slot is drained until it stays empty.  The slot's list
   is swapped out for a spare one before each pass, so a vertex sits at
   most once in a list and every list fits in n entries.

   Sources share a traversal only while they arrive together, and the
   clock visits every time step up to the window's largest distance, so
   the kernel pays only for short edges; longer-edged snapshots keep
   the scalar sweeps (DESIGN.md section 16.3 has the measured
   crossover). *)

let ring_max_length = 32

(* Every bitmap and list of the ring, the spare included, has the same
   length, so the spare's stands for all of them. *)
let ensure_ring s ~n ~slots =
  if Array.length s.ring_len < slots || Array.length s.ring_spare < n then begin
    let slots = Int.max slots (Array.length s.ring_len) in
    let n = Int.max n (Array.length s.ring_spare) in
    s.ring_pend <- Array.init slots (fun _ -> Array.make n 0);
    s.ring_list <- Array.init slots (fun _ -> Array.make n 0);
    s.ring_len <- Array.make slots 0;
    s.ring_spare <- Array.make n 0
  end

(* One window, as [msbfs_window] but on any lengths up to
   [ring_max_length].  Assumes [ensure_batch] and [ensure_ring] ran. *)
let bucket_window ~ban t s ~srcs ~soff ~k ~rows ~roff =
  let offsets = t.offsets and targets = t.targets and lengths = t.lengths in
  let slots = t.max_length + 1 in
  let pend = s.ring_pend and lists = s.ring_list and lens = s.ring_len in
  let seen = s.seen in
  (* Pending entries over all slots. *)
  let live = ref 0 in
  let p0 = pend.(0) in
  for b = 0 to k - 1 do
    let v = srcs.(soff + b) in
    if p0.(v) = 0 then begin
      lists.(0).(lens.(0)) <- v;
      lens.(0) <- lens.(0) + 1;
      incr live
    end;
    p0.(v) <- p0.(v) lor (1 lsl b)
  done;
  let time = ref 0 and sl = ref 0 in
  while !live > 0 do
    let sl0 = !sl and d = !time in
    let p = pend.(sl0) in
    while lens.(sl0) > 0 do
      let cnt = lens.(sl0) in
      let l = lists.(sl0) in
      lists.(sl0) <- s.ring_spare;
      s.ring_spare <- l;
      lens.(sl0) <- 0;
      live := !live - cnt;
      for i = 0 to cnt - 1 do
        let w = l.(i) in
        let sw = seen.(w) in
        let m = p.(w) land lnot sw in
        p.(w) <- 0;
        if m <> 0 then begin
          if sw = 0 then touch s w;
          seen.(w) <- sw lor m;
          let mm = ref m in
          while !mm <> 0 do
            let bit = !mm land - !mm in
            rows.(roff + bit_index.(bit mod 67)).(w) <- d;
            mm := !mm lxor bit
          done;
          if w <> ban then
            for e = offsets.(w) to offsets.(w + 1) - 1 do
              let x = targets.(e) in
              let a = m land lnot seen.(x) in
              if a <> 0 then begin
                let sl' = sl0 + lengths.(e) in
                let sl' = if sl' >= slots then sl' - slots else sl' in
                let p' = pend.(sl') in
                let px = p'.(x) in
                if px = 0 then begin
                  lists.(sl').(lens.(sl')) <- x;
                  lens.(sl') <- lens.(sl') + 1;
                  incr live
                end;
                p'.(x) <- px lor a
              end
            done
        end
      done
    done;
    time := d + 1;
    sl := if sl0 + 1 = slots then 0 else sl0 + 1
  done;
  for i = 0 to s.ntouched - 1 do
    seen.(s.touched.(i)) <- 0
  done

let sssp_batch ?(ban = -1) t s ~srcs ~rows =
  let k = Array.length srcs in
  if Array.length rows < k then invalid_arg "Csr.sssp_batch: fewer rows than sources";
  if k > 1 && (t.unit_lengths || t.max_length <= ring_max_length) then begin
    ensure_batch s t.n;
    if not t.unit_lengths then ensure_ring s ~n:t.n ~slots:(t.max_length + 1);
    let nwin = (k + batch_width - 1) / batch_width in
    for w = 0 to nwin - 1 do
      let soff = w * batch_width in
      let k = Int.min batch_width (k - soff) in
      (* The dirty list has capacity n, enough for one window; later
         windows restart it, so only a single-window batch leaves it
         covering every row. *)
      if w > 0 then s.ntouched <- 0;
      if t.unit_lengths then msbfs_window ~ban t s ~srcs ~soff ~k ~rows ~roff:soff
      else bucket_window ~ban t s ~srcs ~soff ~k ~rows ~roff:soff
    done;
    s.dl_covers_batch <- nwin = 1
  end
  else begin
    for i = 0 to k - 1 do
      sssp ~ban t s ~src:srcs.(i) ~dist:rows.(i)
    done;
    s.dl_covers_batch <- k <= 1
  end

let reset_rows s ~rows =
  if s.dl_covers_batch then begin
    for r = 0 to Array.length rows - 1 do
      let row = rows.(r) in
      for i = 0 to s.ntouched - 1 do
        row.(s.touched.(i)) <- unreachable
      done
    done;
    s.ntouched <- 0;
    s.dl_covers_batch <- false
  end
  else begin
    Array.iter (fun row -> Array.fill row 0 (Array.length row) unreachable) rows;
    s.ntouched <- 0
  end
