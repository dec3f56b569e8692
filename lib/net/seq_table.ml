type 'a t = {
  mutable keys : int array; (* -1 = empty slot *)
  mutable vals : 'a array;
  mutable count : int;
  dummy : 'a;
}

let create ?(capacity = 256) dummy =
  let n = ref 1 in
  while !n < capacity do
    n := !n * 2
  done;
  { keys = Array.make !n (-1); vals = Array.make !n dummy; count = 0; dummy }

let length t = t.count

let[@inline] find_slot t k =
  let i = k land (Array.length t.keys - 1) in
  if k >= 0 && Array.unsafe_get t.keys i = k then i else -1

let mem t k = find_slot t k >= 0
let[@inline] slot_value t i = t.vals.(i)

let[@inline] remove_slot t i =
  t.keys.(i) <- -1;
  t.vals.(i) <- t.dummy;
  t.count <- t.count - 1

(* Rebuild at capacity [n]; [false] (table unchanged) when two live keys
   share a slot under the new mask. *)
let rehash t n =
  let mask = n - 1 in
  let keys = Array.make n (-1) in
  let vals = Array.make n t.dummy in
  let ok = ref true in
  Array.iteri
    (fun j k ->
      if k >= 0 && !ok then begin
        let i = k land mask in
        if keys.(i) = -1 then begin
          keys.(i) <- k;
          vals.(i) <- t.vals.(j)
        end
        else ok := false
      end)
    t.keys;
  if !ok then begin
    t.keys <- keys;
    t.vals <- vals
  end;
  !ok

let grow t =
  let n = ref (Array.length t.keys * 2) in
  while not (rehash t !n) do
    n := !n * 2
  done

let rec replace t k v =
  if k < 0 then invalid_arg "Seq_table.replace: negative key";
  let i = k land (Array.length t.keys - 1) in
  let cur = t.keys.(i) in
  if cur = k then t.vals.(i) <- v
  else if cur = -1 then begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.count <- t.count + 1
  end
  else begin
    grow t;
    replace t k v
  end
