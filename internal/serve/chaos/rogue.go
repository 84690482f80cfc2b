package chaos

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/xrand"
)

// A Rogue is one misbehaving client. Run connects to the daemon and
// misbehaves until it has executed its schedule, the server cuts it
// off, or the context ends. A nil return means the rogue observed the
// defensive reaction it set out to provoke; injection tallies for
// counter reconciliation land in the rogue's exported fields.
//
// Rogues with a Binary field speak the length-prefixed v2 protocol when
// it is set (negotiating it correctly first) and the newline-delimited
// JSON v1 protocol otherwise: each attack has one rogue for both codecs.
type Rogue interface {
	Name() string
	Run(ctx context.Context, network, addr string) error
}

// rogueName prefixes a rogue's name with its codec when it speaks v2.
func rogueName(name string, bin bool) string {
	if bin {
		return "binary-" + name
	}
	return name
}

// wire is one rogue connection in either codec.
type wire struct {
	conn   net.Conn
	br     *bufio.Reader
	binary bool
	buf    []byte
}

// errGarbled marks a response frame the codec cannot decode — the
// server broke the protocol, as opposed to closing the connection.
var errGarbled = errors.New("unparseable response frame")

// dial connects with the context's deadline applied to the connection,
// so a rogue blocked in Read/Write unsticks when the swarm winds down,
// and performs the v2 handshake (send the preamble, read the echo) when
// bin is set.
func dial(ctx context.Context, network, addr string, bin bool) (*wire, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	w := &wire{conn: conn, br: bufio.NewReader(conn), binary: bin}
	if bin {
		var echo [5]byte
		_, err = conn.Write(serve.BinaryPreamble[:])
		if err == nil {
			_, err = io.ReadFull(w.br, echo[:])
		}
		if err == nil && echo != serve.BinaryPreamble {
			err = fmt.Errorf("echo % x, want % x", echo, serve.BinaryPreamble)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("v2 handshake: %w", err)
		}
	}
	return w, nil
}

// encode renders req as one complete request frame: a JSON line, or a
// length-prefixed v2 payload when bin is set.
func encode(req serve.Request, bin bool) ([]byte, error) {
	if bin {
		payload, err := serve.AppendBinaryRequest(nil, 0, &req)
		return serve.AppendFrame(nil, payload), err
	}
	line, err := json.Marshal(req)
	return append(line, '\n'), err
}

// call writes req as one request frame in the wire's codec and reads the
// response.
func (w *wire) call(req serve.Request) (serve.Response, error) {
	frame, err := encode(req, w.binary)
	if err == nil {
		_, err = w.conn.Write(frame)
	}
	if err != nil {
		return serve.Response{}, err
	}
	return w.recv()
}

// recv reads and decodes one response frame in the wire's codec.
func (w *wire) recv() (serve.Response, error) {
	var resp serve.Response
	if w.binary {
		payload, err := serve.ReadFrame(w.br, &w.buf)
		if err != nil {
			return resp, err
		}
		if resp, err = serve.DecodeBinaryResponse(payload); err != nil {
			return resp, fmt.Errorf("%w % x: %v", errGarbled, payload, err)
		}
		return resp, nil
	}
	line, err := w.br.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("%w %q: %v", errGarbled, line, err)
	}
	return resp, nil
}

// closed returns an error unless the server has closed the connection.
func (w *wire) closed() error {
	if b, err := w.br.ReadByte(); err == nil {
		return fmt.Errorf("connection survived (read %#x)", b)
	}
	return nil
}

// refused checks that resp is an error frame carrying code want (any
// code when want is "").
func refused(resp serve.Response, want string) error {
	switch {
	case resp.OK || resp.Error == nil:
		return fmt.Errorf("got ok=%v without an error frame", resp.OK)
	case want != "" && resp.Error.Code != want:
		return fmt.Errorf("got %s (%s), want %s", resp.Error.Code, resp.Error.Message, want)
	}
	return nil
}

// shed reports that the server refused a request with overloaded,
// without executing it.
func shed(resp serve.Response) bool {
	return resp.Error != nil && resp.Error.Code == serve.CodeOverloaded
}

// SlowLoris trickles a JSON request frame one byte at a time and never
// finishes it. A server with a read timeout must disconnect it; Run
// returns nil on that disconnect and an error if the server tolerated
// the trickle until the context expired.
type SlowLoris struct {
	// ByteEvery is the trickle interval (default 10ms).
	ByteEvery time.Duration
}

func (s *SlowLoris) Name() string { return "slow-loris" }

func (s *SlowLoris) Run(ctx context.Context, network, addr string) error {
	every := s.ByteEvery
	if every <= 0 {
		every = 10 * time.Millisecond
	}
	w, err := dial(ctx, network, addr, false)
	if err != nil {
		return err
	}
	defer w.conn.Close()
	// A syntactically plausible prefix, dripped forever.
	frame := `{"v":1,"id":"loris","op":"stats","topo":"` + strings.Repeat("x", 1<<20)
	t := time.NewTicker(every)
	defer t.Stop()
	for i := 0; i < len(frame); i++ {
		select {
		case <-ctx.Done():
			return fmt.Errorf("slow-loris: server never disconnected the trickle")
		case <-t.C:
		}
		if _, err := w.conn.Write([]byte{frame[i]}); err != nil {
			return nil // the server cut us off: the defense worked
		}
	}
	return fmt.Errorf("slow-loris: ran out of frame before the server reacted")
}

// MidFrameDisconnect repeatedly connects, writes part of a route request
// frame — cut anywhere short of its end, inside the v2 length prefix
// included — and drops the connection. The server must clean the
// connection up without logging a response or leaking the goroutine.
type MidFrameDisconnect struct {
	// Conns is the number of connect-abort cycles (default 3).
	Conns int
	// Seed varies the truncation point per cycle.
	Seed uint64
	// Binary speaks the v2 protocol instead of JSON.
	Binary bool
}

func (m *MidFrameDisconnect) Name() string { return rogueName("mid-frame-disconnect", m.Binary) }

func (m *MidFrameDisconnect) Run(ctx context.Context, network, addr string) error {
	conns := m.Conns
	if conns <= 0 {
		conns = 3
	}
	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	rng := xrand.NewPair(seed, 0x6d696466) // "midf"
	src, dst := int32(0), int32(1)
	frame, err := encode(serve.Request{V: serve.ProtocolVersion, ID: "gone", Op: serve.OpRoute,
		Topo: "k", Src: &src, Dst: &dst}, m.Binary)
	if err != nil {
		return err
	}
	for i := 0; i < conns; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w, err := dial(ctx, network, addr, m.Binary)
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name(), err)
		}
		cut := 1 + rng.IntN(len(frame)-1) // at least 1 byte, never the full frame
		w.conn.Write(frame[:cut])
		w.conn.Close()
	}
	return nil
}

// GarbageFlood sends hostile frames and expects an error frame for each,
// never silence or a crash. Over JSON they are lines of random printable
// bytes, some longer than the frame cap; over v2 they are length
// prefixes over the cap, zero prefixes, and well-framed junk payloads.
// Where the protocol closes the connection after the error (an oversized
// or zero-length frame) the flood redials and carries on.
type GarbageFlood struct {
	// Frames is the number of garbage frames to send (default 20).
	Frames int
	// Seed derives the garbage (default 1).
	Seed uint64
	// Binary speaks the v2 protocol instead of JSON.
	Binary bool

	// ErrorFrames counts well-formed error responses received — the
	// server must answer garbage with errors, not silence or a crash.
	ErrorFrames int
}

func (g *GarbageFlood) Name() string { return rogueName("garbage-flood", g.Binary) }

func (g *GarbageFlood) Run(ctx context.Context, network, addr string) error {
	frames := g.Frames
	if frames <= 0 {
		frames = 20
	}
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	rng := xrand.NewPair(seed, 0x67726267) // "grbg"
	w, err := dial(ctx, network, addr, g.Binary)
	if err != nil {
		return fmt.Errorf("%s: %w", g.Name(), err)
	}
	defer func() { w.conn.Close() }()
	for i := 0; i < frames; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		frame, want, closes := g.garbage(rng)
		_, err := w.conn.Write(frame)
		var resp serve.Response
		if err == nil {
			resp, err = w.recv()
		}
		switch {
		case errors.Is(err, errGarbled):
			return fmt.Errorf("%s: %w", g.Name(), err)
		case err == nil:
			if err := refused(resp, want); err != nil {
				return fmt.Errorf("%s: frame %d: %w", g.Name(), i, err)
			}
			g.ErrorFrames++
		}
		// A transport error means the server closed the connection
		// already (say, on a read timeout while the frame was drawn).
		if err != nil || closes {
			w.conn.Close()
			nw, err := dial(ctx, network, addr, g.Binary)
			if err != nil {
				return fmt.Errorf("%s: redial: %w", g.Name(), err)
			}
			w = nw
		}
	}
	return nil
}

// garbage draws one hostile frame, the error code it must draw ("" =
// any), and whether the server closes the connection after answering.
func (g *GarbageFlood) garbage(rng *xrand.RNG) (frame []byte, want string, closes bool) {
	if !g.Binary {
		if rng.IntN(5) == 0 {
			// Oversized line: frame-too-large, then a close.
			line := make([]byte, serve.MaxFrameBytes+2)
			for j := range line {
				line[j] = byte('a' + rng.IntN(26))
			}
			return append(line, '\n'), serve.CodeFrameTooLarge, true
		}
		line := make([]byte, 1+rng.IntN(256))
		for j := range line {
			line[j] = byte(32 + rng.IntN(95)) // printable junk, '\n'-free
		}
		return append(line, '\n'), "", false
	}
	switch rng.IntN(3) {
	case 0:
		// Length prefix over the cap: frame-too-large, then a close.
		n := serve.MaxFrameBytes + 1 + rng.IntN(1<<10)
		return binary.LittleEndian.AppendUint32(nil, uint32(n)), serve.CodeFrameTooLarge, true
	case 1:
		// Zero length prefix: it carries nothing to resync on, so one
		// bad-request error and a close.
		return make([]byte, 4), serve.CodeBadRequest, true
	default:
		// Well-framed junk payload: an error frame, connection open.
		payload := make([]byte, 1+rng.IntN(64))
		for j := range payload {
			payload[j] = byte(rng.IntN(256))
		}
		return serve.AppendFrame(nil, payload), "", false
	}
}

// DeadlineExceeder sends requests engineered to overrun the server's
// handler timeout (the test-sleep op, so the server must run with
// EnableTestOps). Each one must come back with the timeout code.
type DeadlineExceeder struct {
	// Requests is how many over-deadline requests to send (default 2).
	Requests int
	// SleepMS must exceed the server's HandlerTimeout.
	SleepMS int
	// Binary speaks the v2 protocol instead of JSON.
	Binary bool

	// TimeoutsSeen counts timeout-code responses — reconcile against the
	// health op's handler_timeouts.
	TimeoutsSeen int
}

func (d *DeadlineExceeder) Name() string { return rogueName("deadline-exceeder", d.Binary) }

func (d *DeadlineExceeder) Run(ctx context.Context, network, addr string) error {
	requests := d.Requests
	if requests <= 0 {
		requests = 2
	}
	w, err := dial(ctx, network, addr, d.Binary)
	if err != nil {
		return fmt.Errorf("%s: %w", d.Name(), err)
	}
	defer w.conn.Close()
	for i := 0; i < requests; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		resp, err := w.call(serve.Request{V: serve.ProtocolVersion, Op: serve.OpTestSleep, SleepMS: d.SleepMS})
		if err == nil && shed(resp) {
			continue // a detached predecessor still holds its slot
		}
		if err == nil {
			err = refused(resp, serve.CodeTimeout)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name(), err)
		}
		d.TimeoutsSeen++
	}
	return nil
}

// CrashInjector sends the test-crash op (server must run with
// EnableTestOps), expecting an internal-error frame followed by a
// connection close each time — panic isolation in action. A crash shed
// with overloaded (the swarm can fill the in-flight limit) never ran, so
// it is resent on a fresh connection until it lands or the context ends.
type CrashInjector struct {
	// Crashes is how many panics to inject (default 1).
	Crashes int
	// Binary speaks the v2 protocol instead of JSON.
	Binary bool

	// CrashesAcked counts internal-error responses received; reconcile
	// against the health op's panics counter.
	CrashesAcked int
}

func (c *CrashInjector) Name() string { return rogueName("crash-injector", c.Binary) }

func (c *CrashInjector) Run(ctx context.Context, network, addr string) error {
	crashes := c.Crashes
	if crashes <= 0 {
		crashes = 1
	}
	for i := 0; i < crashes; i++ {
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			again, err := c.crash(ctx, network, addr)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name(), err)
			}
			if !again {
				break
			}
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// crash sends one test-crash on its own connection. again reports that
// the server shed it, so it never ran.
func (c *CrashInjector) crash(ctx context.Context, network, addr string) (again bool, err error) {
	w, err := dial(ctx, network, addr, c.Binary)
	if err != nil {
		return false, err
	}
	defer w.conn.Close()
	resp, err := w.call(serve.Request{V: serve.ProtocolVersion, Op: serve.OpTestCrash})
	if err != nil {
		return false, err
	}
	if shed(resp) {
		return true, nil
	}
	if err := refused(resp, serve.CodeInternal); err != nil {
		return false, err
	}
	c.CrashesAcked++
	// The server must poison exactly this connection.
	return false, w.closed()
}

// NegotiationAbuser attacks the v2 preamble itself: wrong magic, version
// skew, and connections dropped mid-preamble. The malformed preambles
// must draw the documented binary error frame followed by a close; the
// truncated ones must be cleaned up silently.
type NegotiationAbuser struct {
	// Rounds is the number of abuse cycles, each running every variant
	// (default 2).
	Rounds int

	// Rejections counts the error frames received for malformed
	// preambles.
	Rejections int
}

func (n *NegotiationAbuser) Name() string { return "negotiation-abuser" }

func (n *NegotiationAbuser) Run(ctx context.Context, network, addr string) error {
	rounds := n.Rounds
	if rounds <= 0 {
		rounds = 2
	}
	expectReject := func(pre []byte, want string) error {
		w, err := dial(ctx, network, addr, false)
		if err != nil {
			return err
		}
		defer w.conn.Close()
		if _, err := w.conn.Write(pre); err != nil {
			return fmt.Errorf("write preamble: %w", err)
		}
		// The rejection comes back as a binary frame, the connection's
		// last breath.
		w.binary = true
		resp, err := w.recv()
		if err == nil {
			err = refused(resp, want)
		}
		if err == nil {
			err = w.closed()
		}
		if err != nil {
			return fmt.Errorf("preamble % x: %w", pre, err)
		}
		n.Rejections++
		return nil
	}
	for i := 0; i < rounds; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := expectReject([]byte{0x00, 'X', 'Y', 'Z', serve.BinaryVersion}, serve.CodeBadRequest); err != nil {
			return fmt.Errorf("negotiation-abuser: bad magic: %w", err)
		}
		if err := expectReject([]byte{0x00, 'J', 'F', 'B', serve.BinaryVersion + 1 + byte(i)}, serve.CodeBadVersion); err != nil {
			return fmt.Errorf("negotiation-abuser: version skew: %w", err)
		}
		// Truncated preamble, then gone: nothing to answer, nothing to
		// crash.
		w, err := dial(ctx, network, addr, false)
		if err != nil {
			return err
		}
		w.conn.Write(serve.BinaryPreamble[:2])
		w.conn.Close()
	}
	return nil
}
