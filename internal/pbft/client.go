package pbft

import (
	"fmt"
	"time"

	"lfi/internal/libsim"
)

// retransmitEvery keeps requests alive under loss; the paper's client
// similarly retransmits until f+1 matching replies arrive.
const retransmitEvery = 20 * time.Millisecond

// Client is the PBFT client (the simple_client workload generator). It
// has at most one operation in flight, which the Cluster's loop drives
// through poll and tick.
type Client struct {
	Name string
	N, F int

	C  *libsim.C
	Th *libsim.Thread
	fd int64

	reqID int64
	// The operation in flight: its request, when it was last sent, and
	// the replicas that sent each result. result holds the answer once
	// f+1 replicas agree on it, which ends the operation.
	inFlight bool
	req      Msg
	lastSend time.Duration
	votes    map[string]map[int]bool
	result   string
}

// NewClient creates a client bound to the shared network.
func NewClient(name string, f int, net libsim.NetBackend) *Client {
	c := libsim.New(1 << 20)
	c.Node = "C"
	c.SetNet(net)
	return &Client{
		Name: name, N: 3*f + 1, F: f,
		C:     c,
		Th:    c.NewThread("bft/simple-client", "main"),
		votes: make(map[string]map[int]bool),
	}
}

// Open creates and binds the client socket.
func (cl *Client) Open() error {
	t := cl.Th
	cl.fd = t.Socket()
	if cl.fd < 0 {
		return fmt.Errorf("pbft: client: socket: %v", t.Errno())
	}
	if t.Bind(cl.fd, cl.Name) < 0 {
		return fmt.Errorf("pbft: client: bind: %v", t.Errno())
	}
	return nil
}

// submit starts operation op at virtual time now: its request goes to
// every replica.
func (cl *Client) submit(op string, now time.Duration) {
	cl.reqID++
	cl.req = Msg{Type: TypeRequest, Replica: -1, Client: cl.Name, ReqID: cl.reqID, Op: op}
	cl.inFlight, cl.result = true, ""
	clear(cl.votes)
	cl.sendAll(now)
}

func (cl *Client) sendAll(now time.Duration) {
	for i := 0; i < cl.N; i++ {
		cl.Th.Sendto(cl.fd, cl.req.Encode(), ReplicaAddr(i))
	}
	cl.lastSend = now
}

// poll receives one datagram, counting it if it is a reply to the
// operation in flight, and reports whether one was consumed.
func (cl *Client) poll(buf []byte) bool {
	var from string
	n := cl.Th.Recvfrom(cl.fd, buf, &from)
	if n <= 0 {
		return false
	}
	if m, ok := DecodeMsg(buf[:n]); ok && cl.inFlight && m.Type == TypeReply && m.ReqID == cl.reqID {
		set := cl.votes[m.Result]
		if set == nil {
			set = make(map[int]bool)
			cl.votes[m.Result] = set
		}
		set[m.Replica] = true
		if len(set) >= cl.F+1 {
			cl.inFlight, cl.result = false, m.Result
		}
	}
	return true
}

// tick retransmits the request in flight to every replica once
// retransmitEvery has passed since it was last sent.
func (cl *Client) tick(now time.Duration) {
	if cl.inFlight && now-cl.lastSend >= retransmitEvery {
		cl.sendAll(now)
	}
}

// Close releases the client socket.
func (cl *Client) Close() {
	if cl.fd >= 0 {
		cl.Th.Close(cl.fd)
	}
}
