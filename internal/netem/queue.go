package netem

import (
	"math/bits"
	"sync"

	"slowcc/internal/sim"
)

// Queue is the buffer management discipline in front of a link. Enqueue
// accepts or drops an arriving packet; Dequeue hands the next packet to
// the link for transmission. All queues here are FIFO in service order;
// they differ only in their drop decision.
type Queue interface {
	// Enqueue offers p to the queue at simulated time now and reports
	// whether it was accepted. A false return means the packet was
	// dropped at arrival.
	Enqueue(p *Packet, now sim.Time) bool
	// Dequeue removes and returns the head packet, or nil if empty. The
	// link calls it each time the transmitter frees up.
	Dequeue(now sim.Time) *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
}

// fifo is the shared FIFO storage used by the drop disciplines. It uses a
// ring buffer so steady-state operation does not allocate. The buffer's
// length is fifoMin times a power of two, itself a power of two, so an
// index wraps with a mask.
type fifo struct {
	buf   []*Packet
	head  int
	n     int
	bytes int
}

const fifoMin = 16

// parked[i] holds emptied buffers of fifoMin<<i slots that released
// queues left (Link.Release), for the next fifo that grows.
var parked [16]sync.Pool

// sizeClass returns i with n == fifoMin<<i, or -1 when n is no class.
func sizeClass(n int) int {
	i := bits.Len(uint(n)) - bits.Len(fifoMin)
	if i < 0 || i >= len(parked) || fifoMin<<i != n {
		return -1
	}
	return i
}

// release Puts every queued packet into pool, empties the fifo and
// parks its buffer. A nil pool drops the packets.
func (f *fifo) release(pool *PacketPool) {
	for f.n > 0 {
		pool.Put(f.pop())
	}
	if c := sizeClass(len(f.buf)); c >= 0 {
		clear(f.buf)
		parked[c].Put(f.buf)
		sim.MarkStocked()
	}
	*f = fifo{}
}

func (f *fifo) push(p *Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
	f.bytes += p.Size
}

func (f *fifo) pop() *Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	f.bytes -= p.Size
	return p
}

// grow moves the queue into a buffer at least twice the size: the
// smallest a released queue parked, or a new one. Sizes only ever
// double from fifoMin, and parked buffers are fifoMin<<i, so every
// length is a power of two and push and pop may mask.
func (f *fifo) grow() {
	need := fifoMin
	if len(f.buf) > 0 {
		need = 2 * len(f.buf)
	}
	var nb []*Packet
	if sim.Stocked() {
		for c := sizeClass(need); c >= 0 && c < len(parked) && nb == nil; c++ {
			nb, _ = parked[c].Get().([]*Packet)
		}
	}
	if nb == nil {
		nb = make([]*Packet, need)
	}
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = nb
	f.head = 0
}

// DropTail is a FIFO queue with a hard capacity limit in packets.
type DropTail struct {
	// Cap is the maximum number of queued packets. Arrivals beyond Cap
	// are dropped.
	Cap int
	q   fifo
}

// NewDropTail returns a DropTail queue holding at most capPkts packets.
func NewDropTail(capPkts int) *DropTail { return &DropTail{Cap: capPkts} }

// Enqueue implements Queue.
func (d *DropTail) Enqueue(p *Packet, _ sim.Time) bool {
	if d.q.n >= d.Cap {
		return false
	}
	d.q.push(p)
	return true
}

// Dequeue implements Queue.
func (d *DropTail) Dequeue(_ sim.Time) *Packet { return d.q.pop() }

// Len implements Queue.
func (d *DropTail) Len() int { return d.q.n }

// Bytes implements Queue.
func (d *DropTail) Bytes() int { return d.q.bytes }
