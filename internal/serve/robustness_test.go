package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// startServer runs a private server for tests that exercise limits or
// lifecycle (the shared TestMain server stays unlimited).
func startServer(t *testing.T, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "jfserve.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Stop()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Stop, want nil", err)
		}
	})
	return srv, sock
}

func rawConnTo(t *testing.T, sock string) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
	return conn, sc
}

func TestHealthRoundTrip(t *testing.T) {
	c := dial(t)
	h, err := c.Health(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Ready {
		t.Fatalf("running server reports not ready: %+v", h)
	}
	if h.Topos < 1 {
		t.Fatalf("health topos %d, want >= 1 (TestMain loaded one)", h.Topos)
	}
	if h.UptimeSeconds <= 0 {
		t.Fatalf("non-positive uptime: %+v", h)
	}
	if h.Conns < 1 {
		t.Fatalf("health conns %d, want >= 1 (this client)", h.Conns)
	}
	// The shared server runs without limits; the zero limits must be
	// reported as such so operators can tell shedding is off.
	if h.MaxConns != 0 || h.MaxInFlight != 0 {
		t.Fatalf("unlimited server reports limits: %+v", h)
	}
}

// TestClientContextDeadline is the regression test for the client
// ignoring caller contexts: a deadline must interrupt a call blocked on
// a slow server rather than hang until the response arrives.
func TestClientContextDeadline(t *testing.T) {
	_, sock := startServer(t, serve.Options{EnableTestOps: true})
	c, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = c.Do(ctx, serve.Request{Op: serve.OpTestSleep, SleepMS: 500})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(t0); d > 400*time.Millisecond {
		t.Fatalf("deadline took %v to fire, want ~50ms", d)
	}
}

func TestClientContextCancel(t *testing.T) {
	_, sock := startServer(t, serve.Options{EnableTestOps: true})
	c, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err = c.Do(ctx, serve.Request{Op: serve.OpTestSleep, SleepMS: 500})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestClientRedialAfterPoison verifies the client transparently redials
// after the server poisons a connection (internal-error closes it).
func TestClientRedialAfterPoison(t *testing.T) {
	srv, sock := startServer(t, serve.Options{EnableTestOps: true})
	c, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Do(bg, serve.Request{Op: serve.OpTestCrash})
	wantCode(t, err, serve.CodeInternal)
	if got := srv.Counters().Panics; got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The poisoned connection is gone; the next call must redial.
	if _, err := c.Stats(bg); err != nil {
		t.Fatalf("stats after redial: %v", err)
	}
}

func TestOverloadedShed(t *testing.T) {
	srv, sock := startServer(t, serve.Options{MaxInFlight: 1, EnableTestOps: true})

	// Occupy the single in-flight slot with a slow request.
	slow, slowSC := rawConnTo(t, sock)
	if _, err := fmt.Fprintln(slow, `{"v":1,"id":"slow","op":"test-sleep","sleep_ms":400}`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	// A second request sheds immediately — and the connection survives.
	conn, sc := rawConnTo(t, sock)
	resp := rawRequest(t, conn, sc, `{"v":1,"id":"shed","op":"stats"}`)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeOverloaded {
		t.Fatalf("got %+v, want %s", resp, serve.CodeOverloaded)
	}
	if resp.ID != "shed" {
		t.Fatalf("shed response dropped the request id: %+v", resp)
	}

	// health answers while the server is saturated.
	hc, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	h, err := hc.Health(bg)
	if err != nil {
		t.Fatalf("health under overload: %v", err)
	}
	if h.Shed != 1 || h.InFlight != 1 || h.MaxInFlight != 1 {
		t.Fatalf("health under overload = %+v, want shed 1, in_flight 1/1", h)
	}

	// Once the slow request drains, the same connection serves again.
	if !slowSC.Scan() {
		t.Fatalf("slow request never answered: %v", slowSC.Err())
	}
	resp = rawRequest(t, conn, sc, `{"v":1,"id":"after","op":"stats"}`)
	if !resp.OK {
		t.Fatalf("connection unusable after shed: %+v", resp)
	}
}

func TestHandlerTimeoutCode(t *testing.T) {
	srv, sock := startServer(t, serve.Options{
		MaxInFlight: 1, HandlerTimeout: 50 * time.Millisecond, EnableTestOps: true,
	})
	conn, sc := rawConnTo(t, sock)
	resp := rawRequest(t, conn, sc, `{"v":1,"id":"slow","op":"test-sleep","sleep_ms":300}`)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeTimeout {
		t.Fatalf("got %+v, want %s", resp, serve.CodeTimeout)
	}
	if got := srv.Counters().HandlerTimeouts; got != 1 {
		t.Fatalf("handler timeout counter = %d, want 1", got)
	}
	// The detached handler still holds its in-flight slot — load
	// accounting stays honest, so a new request sheds.
	resp = rawRequest(t, conn, sc, `{"v":1,"id":"while","op":"stats"}`)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeOverloaded {
		t.Fatalf("during detached handler: got %+v, want %s", resp, serve.CodeOverloaded)
	}
	// Once it finishes, the slot frees.
	waitFor(t, func() bool { return srv.InFlight() == 0 })
	resp = rawRequest(t, conn, sc, `{"v":1,"id":"after","op":"stats"}`)
	if !resp.OK {
		t.Fatalf("after detached handler drained: %+v", resp)
	}
}

func TestConnLimitRefusal(t *testing.T) {
	srv, sock := startServer(t, serve.Options{MaxConns: 1})
	held, heldSC := rawConnTo(t, sock)

	over, overSC := rawConnTo(t, sock)
	if !overSC.Scan() {
		t.Fatalf("refused connection got no error frame: %v", overSC.Err())
	}
	var resp serve.Response
	if err := jsonUnmarshal(overSC.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeOverloaded {
		t.Fatalf("refusal frame = %+v, want %s", resp, serve.CodeOverloaded)
	}
	if resp.ID != "" {
		t.Fatalf("refusal frame carries id %q, want empty (no request read)", resp.ID)
	}
	if overSC.Scan() {
		t.Fatalf("refused connection still open: %q", overSC.Bytes())
	}
	over.Close()
	if got := srv.Counters().ConnShed; got != 1 {
		t.Fatalf("conn shed counter = %d, want 1", got)
	}

	// The held connection was never disturbed.
	r := rawRequest(t, held, heldSC, `{"v":1,"id":"ok","op":"stats"}`)
	if !r.OK {
		t.Fatalf("held connection broken by refusal: %+v", r)
	}
	// Dropping it frees the slot for a newcomer.
	held.Close()
	waitFor(t, func() bool {
		c, err := net.Dial("unix", sock)
		if err != nil {
			return false
		}
		defer c.Close()
		sc := bufio.NewScanner(c)
		if _, err := fmt.Fprintln(c, `{"v":1,"id":"new","op":"stats"}`); err != nil {
			return false
		}
		if !sc.Scan() {
			return false
		}
		var resp serve.Response
		return jsonUnmarshal(sc.Bytes(), &resp) == nil && resp.OK
	})
}

func TestPanicIsolation(t *testing.T) {
	srv, sock := startServer(t, serve.Options{EnableTestOps: true})
	bystander, bystanderSC := rawConnTo(t, sock)
	crasher, crasherSC := rawConnTo(t, sock)

	resp := rawRequest(t, crasher, crasherSC, `{"v":1,"id":"boom","op":"test-crash"}`)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeInternal {
		t.Fatalf("got %+v, want %s", resp, serve.CodeInternal)
	}
	if resp.ID != "boom" {
		t.Fatalf("panic response dropped the request id: %+v", resp)
	}
	// The offending connection is poisoned...
	if crasherSC.Scan() {
		t.Fatalf("connection still open after panic: %q", crasherSC.Bytes())
	}
	// ...but only that one: the bystander keeps serving, and the daemon
	// counted exactly the injected panic.
	r := rawRequest(t, bystander, bystanderSC, `{"v":1,"id":"alive","op":"stats"}`)
	if !r.OK {
		t.Fatalf("bystander connection broken by another connection's panic: %+v", r)
	}
	if got := srv.Counters().Panics; got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

func TestSlowLorisReadTimeout(t *testing.T) {
	srv, sock := startServer(t, serve.Options{ReadTimeout: 80 * time.Millisecond})
	conn, sc := rawConnTo(t, sock)
	// Half a frame, then silence: the frame never completes, so the
	// server must cut the connection (silently — no error frame can be
	// parsed mid-frame) and count an I/O timeout.
	if _, err := conn.Write([]byte(`{"v":1,"op":`)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	conn.SetReadDeadline(deadline)
	if sc.Scan() {
		t.Fatalf("got a frame on a stalled connection: %q", sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("expected clean EOF from server-side close, got %v", err)
	}
	if got := srv.Counters().IOTimeouts; got != 1 {
		t.Fatalf("io timeout counter = %d, want 1", got)
	}
}

func TestClientRetryOverloaded(t *testing.T) {
	srv, sock := startServer(t, serve.Options{MaxInFlight: 1, EnableTestOps: true})
	slow, _ := rawConnTo(t, sock)
	if _, err := fmt.Fprintln(slow, `{"v":1,"id":"slow","op":"test-sleep","sleep_ms":150}`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	c, err := client.DialRetry(bg, "unix", sock, client.RetryPolicy{
		MaxAttempts: 20, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The first attempts shed; the policy backs off until the slot frees.
	if _, err := c.Stats(bg); err != nil {
		t.Fatalf("retrying client never got through: %v", err)
	}
	if got := srv.Counters().Shed; got < 1 {
		t.Fatalf("shed counter = %d, want >= 1 (the retried attempts)", got)
	}
}

func TestClientRetryExhausted(t *testing.T) {
	srv, sock := startServer(t, serve.Options{MaxInFlight: 1, EnableTestOps: true})
	slow, _ := rawConnTo(t, sock)
	if _, err := fmt.Fprintln(slow, `{"v":1,"id":"slow","op":"test-sleep","sleep_ms":2000}`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	c, err := client.DialRetry(bg, "unix", sock, client.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Stats(bg)
	wantCode(t, err, serve.CodeOverloaded)
	if got := srv.Counters().Shed; got != 3 {
		t.Fatalf("shed counter = %d, want 3 (every attempt shed)", got)
	}
}

// TestShutdownUnderLoad drives concurrent request streams into Stop:
// every response received before a connection closes must be complete,
// Serve must return nil, and Stop must not hang on busy connections.
// (The name keeps it under the race gate's -run 'Concurrent|Shutdown'.)
func TestShutdownUnderLoad(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "load.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// Dial every client before any stream starts: Stop unlinks the
	// socket, so a dial racing it would fail for reasons unrelated to
	// draining.
	const clients = 6
	conns := make([]*client.Client, clients)
	for i := range conns {
		c, err := client.Dial(bg, "unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	var wg, started sync.WaitGroup
	var mu sync.Mutex
	served := 0
	for _, c := range conns {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			markStarted := func() { once.Do(started.Done) }
			defer markStarted()
			for {
				st, err := c.Stats(bg)
				if err != nil {
					return // the connection closed mid-stream; fine
				}
				if st.UptimeSeconds <= 0 {
					t.Error("drained response is incomplete")
					return
				}
				mu.Lock()
				served++
				mu.Unlock()
				markStarted()
			}
		}()
	}
	started.Wait() // Stop lands while all streams are in flight
	srv.Stop()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Stop, want nil", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if served < 1 {
		t.Fatal("no request completed before shutdown")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }
