package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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
type Rogue interface {
	Name() string
	Run(ctx context.Context, network, addr string) error
}

// dialCtx dials with the context's deadline applied to the connection,
// so a rogue blocked in Read/Write unsticks when the swarm winds down.
func dialCtx(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	return conn, nil
}

// SlowLoris trickles a request frame one byte at a time and never
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
	conn, err := dialCtx(ctx, network, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
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
		if _, err := conn.Write([]byte{frame[i]}); err != nil {
			return nil // the server cut us off: the defense worked
		}
	}
	return fmt.Errorf("slow-loris: ran out of frame before the server reacted")
}

// MidFrameDisconnect repeatedly connects, writes part of a frame, and
// drops the connection without finishing it. The server must clean the
// connection up without logging a response or leaking the goroutine.
type MidFrameDisconnect struct {
	// Conns is the number of connect-abort cycles (default 3).
	Conns int
	// Seed varies the truncation point per cycle.
	Seed uint64
}

func (m *MidFrameDisconnect) Name() string { return "mid-frame-disconnect" }

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
	frame := `{"v":1,"id":"gone","op":"route","topo":"k","src":0,"dst":1}`
	for i := 0; i < conns; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := dialCtx(ctx, network, addr)
		if err != nil {
			return err
		}
		cut := 1 + rng.IntN(len(frame)-1) // at least 1 byte, never the full frame
		conn.Write([]byte(frame[:cut]))
		conn.Close()
	}
	return nil
}

// GarbageFlood sends frames of random bytes — including some larger
// than the protocol's frame cap — and expects an error frame (or a
// frame-too-large close) for each, never a crash. Redials after the
// server closes on an oversized frame.
type GarbageFlood struct {
	// Frames is the number of garbage lines to send (default 20).
	Frames int
	// Seed derives the garbage (default 1).
	Seed uint64

	// ErrorFrames counts well-formed error responses received — the
	// server must answer garbage with errors, not silence or a crash.
	ErrorFrames int
}

func (g *GarbageFlood) Name() string { return "garbage-flood" }

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
	conn, err := dialCtx(ctx, network, addr)
	if err != nil {
		return err
	}
	defer func() { conn.Close() }()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
	for i := 0; i < frames; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var line []byte
		if rng.IntN(5) == 0 {
			// Oversized frame: the server must answer frame-too-large and
			// close; we redial and keep flooding.
			line = make([]byte, serve.MaxFrameBytes+2)
			for j := range line {
				line[j] = byte('a' + rng.IntN(26))
			}
		} else {
			line = make([]byte, 1+rng.IntN(256))
			for j := range line {
				line[j] = byte(32 + rng.IntN(95)) // printable junk, '\n'-free
			}
		}
		if _, err := conn.Write(append(line, '\n')); err != nil {
			// The previous oversized frame closed the connection mid-flood.
			if conn, err = dialCtx(ctx, network, addr); err != nil {
				return err
			}
			sc = bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
			continue
		}
		if !sc.Scan() {
			// Closed after frame-too-large; redial for the rest.
			if conn, err = dialCtx(ctx, network, addr); err != nil {
				return err
			}
			sc = bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
			continue
		}
		var resp serve.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			return fmt.Errorf("garbage-flood: unparseable response %q", sc.Bytes())
		}
		if resp.OK || resp.Error == nil {
			return fmt.Errorf("garbage-flood: server accepted garbage: %q", sc.Bytes())
		}
		g.ErrorFrames++
	}
	return nil
}

// DeadlineExceeder sends requests engineered to overrun the server's
// handler timeout (the test-sleep op, so the server must run with
// EnableTestOps). Each one must come back with the timeout code.
type DeadlineExceeder struct {
	// Requests is how many over-deadline requests to send (default 2).
	Requests int
	// SleepMS must exceed the server's HandlerTimeout.
	SleepMS int

	// TimeoutsSeen counts timeout-code responses — reconcile against the
	// health op's handler_timeouts.
	TimeoutsSeen int
}

func (d *DeadlineExceeder) Name() string { return "deadline-exceeder" }

func (d *DeadlineExceeder) Run(ctx context.Context, network, addr string) error {
	requests := d.Requests
	if requests <= 0 {
		requests = 2
	}
	conn, err := dialCtx(ctx, network, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
	for i := 0; i < requests; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		frame := fmt.Sprintf(`{"v":1,"id":"dl%d","op":"test-sleep","sleep_ms":%d}`, i, d.SleepMS)
		if _, err := fmt.Fprintln(conn, frame); err != nil {
			return fmt.Errorf("deadline-exceeder: write: %w", err)
		}
		if !sc.Scan() {
			return fmt.Errorf("deadline-exceeder: no response: %v", sc.Err())
		}
		var resp serve.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			return err
		}
		switch {
		case resp.Error != nil && resp.Error.Code == serve.CodeTimeout:
			d.TimeoutsSeen++
		case resp.Error != nil && resp.Error.Code == serve.CodeOverloaded:
			// A detached predecessor still holds its slot; acceptable.
		default:
			return fmt.Errorf("deadline-exceeder: got %q, want %s", sc.Bytes(), serve.CodeTimeout)
		}
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

	// CrashesAcked counts internal-error responses received; reconcile
	// against the health op's panics counter.
	CrashesAcked int
}

func (c *CrashInjector) Name() string { return "crash-injector" }

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
			shed, err := c.crash(ctx, network, addr, i)
			if err != nil {
				return err
			}
			if !shed {
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

// crash sends one test-crash on its own connection. shed reports that
// the server refused it with overloaded, without executing it.
func (c *CrashInjector) crash(ctx context.Context, network, addr string, i int) (shed bool, err error) {
	conn, err := dialCtx(ctx, network, addr)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
	if _, err := fmt.Fprintf(conn, `{"v":1,"id":"crash%d","op":"test-crash"}`+"\n", i); err != nil {
		return false, fmt.Errorf("crash-injector: write: %w", err)
	}
	if !sc.Scan() {
		return false, fmt.Errorf("crash-injector: no response: %v", sc.Err())
	}
	var resp serve.Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		return false, err
	}
	switch {
	case resp.Error != nil && resp.Error.Code == serve.CodeOverloaded:
		return true, nil
	case resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeInternal:
		return false, fmt.Errorf("crash-injector: got %q, want %s", sc.Bytes(), serve.CodeInternal)
	}
	c.CrashesAcked++
	// The server must poison exactly this connection.
	if sc.Scan() {
		return false, fmt.Errorf("crash-injector: connection survived a panic: %q", sc.Bytes())
	}
	return false, nil
}
