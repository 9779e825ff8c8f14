let input instance config =
  if Instance.uniform_k instance <> Some 1 then None else Config.successors config

let cost ~objective instance t =
  let n = Instance.n instance and m = Instance.penalty instance in
  match objective with
  | Objective.Sum -> (t * (t + 1) / 2) + ((n - 1 - t) * m)
  | Objective.Max -> if t = n - 1 then t else m

(* Walk counts with [ban]'s successor removed ([ban = -1]: none, the
   counts T_G of G itself), in one O(n) pass: each vertex is pushed on
   [path] once, and its count is the count of the vertex it leads to
   plus one, or the cycle length for the vertices of a cycle the walk
   closes.  While a vertex sits on the path, [t] holds -2 - its
   position.  [t.(ban) = 0]. *)
let walk_counts succ ban =
  let n = Array.length succ in
  let t = Array.make n (-1) in
  let path = Array.make n 0 in
  if ban >= 0 then t.(ban) <- 0;
  for s = 0 to n - 1 do
    if t.(s) = -1 then begin
      let len = ref 0 and x = ref s in
      while !x >= 0 && t.(!x) = -1 do
        t.(!x) <- -2 - !len;
        path.(!len) <- !x;
        incr len;
        x := succ.(!x)
      done;
      let base =
        if !x < 0 then 0
        else if t.(!x) >= 0 then t.(!x)
        else begin
          let p = -2 - t.(!x) in
          let c = !len - p in
          for i = p to !len - 1 do
            t.(path.(i)) <- c
          done;
          len := p;
          c
        end
      in
      for i = !len - 1 downto 0 do
        t.(path.(i)) <- base + !len - i
      done
    end
  done;
  t

let costs ~objective instance succ =
  Array.map (fun t -> cost ~objective instance (t - 1)) (walk_counts succ (-1))

type scan = { best : int array; current : int array }

(* Stdlib's [max] is polymorphic: a compare call per use. *)
let[@inline] max (a : int) b = if a >= b then a else b

(* B(u) and C(u) for every u from the walk counts T of G itself
   (DESIGN.md section 9.2).  G is a forest of in-trees hanging off
   cycles or off nodes that buy nothing; [x] lies on a cycle iff its
   successor has the same count.  A vertex whose walk passes through
   [u] counts its distance to [u] in G_{-u}: the largest is the height
   of [u]'s in-tree, or, for [u] = c_i on a cycle c_0 .. c_{L-1} with
   hanging heights h_j, the max of h_i and h_j + (i - j mod L), read
   from prefix and suffix maxima of h_j - j.  Every other vertex keeps
   its count in G; a preorder that visits each component, cycle vertex
   after cycle vertex, as one interval lays [u]'s subtree (or, on a
   cycle, its component) out as an interval too, so the rest is a
   prefix and a suffix of the preorder. *)
let scan succ =
  let n = Array.length succ in
  let t = walk_counts succ (-1) in
  let on_cycle x = succ.(x) >= 0 && t.(succ.(x)) = t.(x) in
  (* In-forest children: every non-cycle vertex under its successor. *)
  let first = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    if succ.(x) >= 0 && not (on_cycle x) then first.(succ.(x) + 1) <- first.(succ.(x) + 1) + 1
  done;
  for x = 0 to n - 1 do
    first.(x + 1) <- first.(x + 1) + first.(x)
  done;
  let children = Array.make n 0 and fill = Array.sub first 0 n in
  for x = 0 to n - 1 do
    if succ.(x) >= 0 && not (on_cycle x) then begin
      children.(fill.(succ.(x))) <- x;
      fill.(succ.(x)) <- fill.(succ.(x)) + 1
    end
  done;
  (* Preorder.  [lo, hi) is a vertex's own interval for a tree vertex,
     its component's for a cycle vertex; [pos] is the cycle position. *)
  let order = Array.make n 0 and pre = Array.make n (-1) in
  let lo = Array.make n 0 and hi = Array.make n 0 and pos = Array.make n 0 in
  let stack = Array.make n 0 and k = ref 0 in
  let visit r =
    let top = ref 1 in
    stack.(0) <- r;
    while !top > 0 do
      decr top;
      let x = stack.(!top) in
      pre.(x) <- !k;
      order.(!k) <- x;
      incr k;
      for e = first.(x) to first.(x + 1) - 1 do
        stack.(!top) <- children.(e);
        incr top
      done
    done
  in
  (* The cycles' vertices, each cycle in walk order from its first
     vertex found, cycle after cycle. *)
  let cyc = Array.make n 0 and ncyc = ref 0 in
  for r = 0 to n - 1 do
    if pre.(r) < 0 then
      if succ.(r) < 0 then visit r
      else if on_cycle r then begin
        let start = !k and c0 = !ncyc in
        let x = ref r and i = ref 0 in
        while pre.(!x) < 0 do
          visit !x;
          pos.(!x) <- !i;
          cyc.(!ncyc) <- !x;
          incr ncyc;
          incr i;
          x := succ.(!x)
        done;
        for j = c0 to !ncyc - 1 do
          lo.(cyc.(j)) <- start;
          hi.(cyc.(j)) <- !k
        done
      end
  done;
  (* Heights and subtree sizes, children before parents. *)
  let h = Array.make n 0 and size = Array.make n 1 in
  for i = n - 1 downto 0 do
    let x = order.(i) in
    if succ.(x) >= 0 && not (on_cycle x) then begin
      let p = succ.(x) in
      h.(p) <- max h.(p) (h.(x) + 1);
      size.(p) <- size.(p) + size.(x)
    end
  done;
  for x = 0 to n - 1 do
    if not (on_cycle x) then begin
      lo.(x) <- pre.(x);
      hi.(x) <- pre.(x) + size.(x)
    end
  done;
  (* [before.(i)]: max count over order.(0 .. i-1); [after.(i)]: over
     order.(i .. n-1).  Counts are >= 1, so 0 stands for "none". *)
  let before = Array.make (n + 1) 0 and after = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    before.(i + 1) <- max before.(i) t.(order.(i))
  done;
  for i = n - 1 downto 0 do
    after.(i) <- max after.(i + 1) t.(order.(i))
  done;
  (* Around each cycle, the max of h_j - j over j < i and over j > i. *)
  let below = Array.make n min_int and above = Array.make n min_int in
  let j = ref 0 in
  while !j < !ncyc do
    let c0 = !j and len = t.(cyc.(!j)) in
    for i = 1 to len - 1 do
      let prev = cyc.(c0 + i - 1) in
      below.(cyc.(c0 + i)) <- max below.(prev) (h.(prev) - (i - 1))
    done;
    for i = len - 2 downto 0 do
      let next = cyc.(c0 + i + 1) in
      above.(cyc.(c0 + i)) <- max above.(next) (h.(next) - (i + 1))
    done;
    j := c0 + len
  done;
  let best =
    Array.init n (fun u ->
        let outside = max before.(lo.(u)) after.(hi.(u)) in
        let inside =
          if on_cycle u then begin
            let i = pos.(u) and len = t.(u) in
            let via_below = if i > 0 then i + below.(u) else 0 in
            let via_above = if i < len - 1 then i + len + above.(u) else 0 in
            max h.(u) (max via_below via_above)
          end
          else h.(u)
        in
        max inside outside)
  in
  { best; current = Array.map (fun c -> c - 1) t }

let improves ~objective instance s u =
  cost ~objective instance s.best.(u) < cost ~objective instance s.current.(u)
