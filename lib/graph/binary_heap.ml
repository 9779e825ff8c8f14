type t = {
  mutable prio : int array;
  mutable load : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0; load = Array.make capacity 0; len = 0 }

let is_empty h = h.len = 0

let size h = h.len

let grow h =
  let cap = Array.length h.prio in
  let prio = Array.make (2 * cap) 0 and load = Array.make (2 * cap) 0 in
  Array.blit h.prio 0 prio 0 h.len;
  Array.blit h.load 0 load 0 h.len;
  h.prio <- prio;
  h.load <- load

let swap h i j =
  let tp = h.prio.(i) and tl = h.load.(i) in
  h.prio.(i) <- h.prio.(j);
  h.load.(i) <- h.load.(j);
  h.prio.(j) <- tp;
  h.load.(j) <- tl

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prio.(i) < h.prio.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.prio.(l) < h.prio.(!smallest) then smallest := l;
  if r < h.len && h.prio.(r) < h.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h priority payload =
  if h.len = Array.length h.prio then grow h;
  h.prio.(h.len) <- priority;
  h.load.(h.len) <- payload;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let min_priority h =
  if h.len = 0 then invalid_arg "Binary_heap.min_priority: empty heap";
  h.prio.(0)

let pop_min h =
  if h.len = 0 then invalid_arg "Binary_heap.pop_min: empty heap";
  let v = h.load.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.prio.(0) <- h.prio.(h.len);
    h.load.(0) <- h.load.(h.len);
    sift_down h 0
  end;
  v

let clear h = h.len <- 0
