package transport

import "time"

// timers is one execution domain's pending timers (the serial loop's or a
// shard loop's): a heap ordered by deadline behind a single time.Timer,
// re-armed for the earliest deadline, whose expiry posts one pevTimer
// event to the domain's mailbox. The loop then fires every timer that is
// due, each as its own OnTimer invocation. Setting and cancelling a timer
// moves entries within slices the domain keeps, so neither allocates once
// the slices have grown to the domain's high-water mark.
//
// Everything but wake's callback is confined to the domain's goroutine.
type timers struct {
	now  func() time.Duration
	post func() // wake's callback: post a pevTimer event to the loop
	wake *time.Timer
	// armedAt is the deadline wake is set for; armed is false once it
	// has fired (or was never set).
	armed   bool
	armedAt time.Duration

	heap  []timerEntry // min-heap by (at, seq)
	slots []timerSlot  // indexed by a TimerID's slot
	free  []int32      // slots not in use
	seq   uint64       // timers set, in order: breaks deadline ties FIFO
}

type timerEntry struct {
	at   time.Duration
	seq  uint64
	tag  any
	slot int32
}

// timerSlot locates a pending timer in the heap. gen counts the slot's
// reuses, so a TimerID of a timer that fired or was cancelled no longer
// matches the slot once another timer takes it.
type timerSlot struct {
	gen uint32
	pos int32 // index in heap, -1 when the slot is free
}

func newTimers(now func() time.Duration, box *mailbox) *timers {
	return &timers{now: now, post: func() { box.put(procEvent{kind: pevTimer}) }}
}

// set schedules tag after d and returns its id: the slot in the low half
// (plus one, so no id is 0) and the slot's generation in the high half.
func (t *timers) set(d time.Duration, tag any) TimerID {
	var slot int32
	if n := len(t.free); n > 0 {
		slot, t.free = t.free[n-1], t.free[:n-1]
	} else {
		slot = int32(len(t.slots))
		t.slots = append(t.slots, timerSlot{})
	}
	now := t.now()
	t.seq++
	t.heap = append(t.heap, timerEntry{at: now + d, seq: t.seq, tag: tag, slot: slot})
	t.slots[slot].pos = int32(len(t.heap) - 1)
	t.up(len(t.heap) - 1)
	t.arm(now)
	return TimerID(uint64(t.slots[slot].gen)<<32 | uint64(slot+1))
}

// cancel drops the pending timer id; an id that fired, was cancelled or
// was dropped by reset matches nothing.
func (t *timers) cancel(id TimerID) {
	slot := int64(uint32(id)) - 1
	if slot < 0 || slot >= int64(len(t.slots)) {
		return
	}
	s := t.slots[slot]
	if s.gen != uint32(id>>32) || s.pos < 0 {
		return
	}
	t.remove(int(s.pos))
}

// fire removes every timer due now from the heap, earliest first, and
// hands its tag to each, which may set and cancel timers; then it
// re-arms wake for what is still pending.
func (t *timers) fire(each func(tag any)) {
	t.armed = false // wake fired, or this turn makes it moot
	now := t.now()
	for len(t.heap) > 0 && t.heap[0].at <= now {
		tag := t.heap[0].tag
		t.remove(0)
		each(tag)
	}
	t.arm(t.now())
}

// reset drops every pending timer: a crash.
func (t *timers) reset() {
	for len(t.heap) > 0 {
		t.remove(len(t.heap) - 1)
	}
	t.stop()
}

// stop disarms wake.
func (t *timers) stop() {
	if t.wake != nil {
		t.wake.Stop()
	}
	t.armed = false
}

// arm sets wake for the earliest deadline unless it is already set for
// one no later. A wake that finds nothing due (its timer was cancelled)
// re-arms and costs one empty loop turn.
func (t *timers) arm(now time.Duration) {
	if len(t.heap) == 0 {
		return
	}
	at := t.heap[0].at
	if t.armed && t.armedAt <= at {
		return
	}
	t.armed, t.armedAt = true, at
	if t.wake == nil {
		t.wake = time.AfterFunc(at-now, t.post)
		return
	}
	t.wake.Reset(at - now)
}

// remove takes heap[i] out and frees its slot.
func (t *timers) remove(i int) {
	last := len(t.heap) - 1
	if i != last {
		t.swap(i, last)
	}
	slot := t.heap[last].slot
	t.slots[slot].gen++
	t.slots[slot].pos = -1
	t.free = append(t.free, slot)
	t.heap[last] = timerEntry{}
	t.heap = t.heap[:last]
	if i < last {
		t.down(i)
		t.up(i)
	}
}

func (t *timers) less(i, j int) bool {
	a, b := &t.heap[i], &t.heap[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (t *timers) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.slots[t.heap[i].slot].pos = int32(i)
	t.slots[t.heap[j].slot].pos = int32(j)
}

func (t *timers) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			return
		}
		t.swap(i, p)
		i = p
	}
}

func (t *timers) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(t.heap) {
			return
		}
		if c+1 < len(t.heap) && t.less(c+1, c) {
			c++
		}
		if !t.less(c, i) {
			return
		}
		t.swap(i, c)
		i = c
	}
}
