package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registrar is the worker side of the lifecycle protocol (DESIGN.md
// §13): it registers the worker with the coordinator (retrying on a
// jittered exponential backoff until the coordinator exists), then
// heartbeats at the cadence the coordinator dictated. A heartbeat
// answered with unknown_worker — the signature of a restarted
// coordinator — triggers immediate re-registration, so a bounced
// coordinator re-learns its fleet within one beat without operator
// action. A 409 incompatible_worker refusal is terminal: the loop logs
// it at error level and exits, leaving Registered false, because no
// retry can change the frame version this build speaks.
type Registrar struct {
	coordinator string // coordinator base URL
	self        string // this worker's advertised base URL
	caps        WorkerCaps
	client      *http.Client
	logger      *slog.Logger

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	registered atomic.Bool
	beats      atomic.Uint64
}

// RegistrarConfig configures a Registrar. Coordinator and SelfURL are
// required; zero Caps means DefaultWorkerCaps, nil Client a default
// with a 10-second timeout, nil Logger discard.
type RegistrarConfig struct {
	Coordinator string
	SelfURL     string
	Caps        WorkerCaps
	Client      *http.Client
	Logger      *slog.Logger
}

// NewRegistrar validates cfg and builds a Registrar; call Start to
// begin the register/heartbeat loop.
func NewRegistrar(cfg RegistrarConfig) (*Registrar, error) {
	coord, err := normalizeWorkerURL(cfg.Coordinator)
	if err != nil {
		return nil, fmt.Errorf("shard: registrar coordinator: %w", err)
	}
	self, err := normalizeWorkerURL(cfg.SelfURL)
	if err != nil {
		return nil, fmt.Errorf("shard: registrar self url: %w", err)
	}
	if cfg.Caps == (WorkerCaps{}) {
		cfg.Caps = DefaultWorkerCaps()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return &Registrar{
		coordinator: coord,
		self:        self,
		caps:        cfg.Caps,
		client:      cfg.Client,
		logger:      cfg.Logger,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}, nil
}

// Start launches the register/heartbeat loop; Stop ends it.
func (g *Registrar) Start() { go g.loop() }

// Stop ends the loop and waits for it to exit. It does not deregister
// — a drain calls Deregister explicitly; a crash relies on the
// coordinator's heartbeat timeout.
func (g *Registrar) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}

// Registered reports whether the last register/heartbeat round-trip
// succeeded.
func (g *Registrar) Registered() bool { return g.registered.Load() }

// Beats returns the number of heartbeats acknowledged.
func (g *Registrar) Beats() uint64 { return g.beats.Load() }

// Deregister tells the coordinator this worker is leaving — the tail
// of a graceful drain.
func (g *Registrar) Deregister(ctx context.Context) error {
	g.registered.Store(false)
	return g.postJSON(ctx, g.coordinator+PathDeregister, DeregisterRequest{URL: g.self}, nil)
}

// registerBackoff bounds the register retry schedule: a worker booted
// before its coordinator keeps trying on a jittered exponential
// backoff so a rack of workers never stampedes a starting coordinator.
const (
	registerBackoffBase = 250 * time.Millisecond
	registerBackoffCap  = 8 * time.Second
)

func (g *Registrar) loop() {
	defer close(g.done)
	beat := 2 * time.Second // overwritten by the coordinator's answer
	fails := 0
	for {
		if !g.registered.Load() {
			d, err := g.register()
			var se *shardError
			if errors.As(err, &se) && se.code == CodeIncompatibleWorker {
				g.logger.Error("shard registration refused; not retrying",
					"coordinator", g.coordinator, "err", se.msg)
				return
			}
			if err != nil {
				delay := registerBackoffBase << min(fails, 10)
				if delay > registerBackoffCap {
					delay = registerBackoffCap
				}
				fails++
				g.logger.Warn("shard register failed", "coordinator", g.coordinator, "err", err)
				if !g.sleep(jitterHalf(delay)) {
					return
				}
				continue
			}
			fails = 0
			if d > 0 {
				beat = d
			}
			g.registered.Store(true)
			g.logger.Info("shard worker registered", "coordinator", g.coordinator, "heartbeat", beat)
		}
		if !g.sleep(beat) {
			return
		}
		if err := g.heartbeat(); err != nil {
			var se *shardError
			if errors.As(err, &se) && se.code == CodeUnknownWorker {
				// restarted coordinator: re-register right away
				g.registered.Store(false)
				continue
			}
			g.logger.Warn("shard heartbeat failed", "coordinator", g.coordinator, "err", err)
			continue // transient: keep beating, the coordinator probes us meanwhile
		}
		g.beats.Add(1)
	}
}

// sleep waits d or until Stop; it reports whether the loop continues.
func (g *Registrar) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-g.stop:
		return false
	case <-t.C:
		return true
	}
}

func (g *Registrar) register() (time.Duration, error) {
	ctx, cancel := g.callCtx()
	defer cancel()
	var resp RegisterResponse
	err := g.postJSON(ctx, g.coordinator+PathRegister, RegisterRequest{URL: g.self, Caps: g.caps}, &resp)
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, errors.New("shard: coordinator rejected registration")
	}
	return time.Duration(resp.HeartbeatMillis) * time.Millisecond, nil
}

func (g *Registrar) heartbeat() error {
	ctx, cancel := g.callCtx()
	defer cancel()
	return g.postJSON(ctx, g.coordinator+PathHeartbeat, HeartbeatRequest{URL: g.self}, nil)
}

// callCtx bounds one lifecycle RPC and aborts it on Stop, so a hung
// coordinator never wedges the loop (or a drain) past the timeout.
func (g *Registrar) callCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	go func() {
		select {
		case <-g.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// readAll64K drains a small lifecycle response body, bounded so a
// misbehaving peer cannot balloon the worker.
func readAll64K(r io.Reader) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r, 1<<16))
}

// postJSON sends one lifecycle RPC, decoding the error body into a
// typed *shardError on non-200 and the response into out when non-nil.
func (g *Registrar) postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := readAll64K(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		_ = json.Unmarshal(data, &eb)
		if eb.Error == "" {
			eb.Error = strings.TrimSpace(string(data))
		}
		return &shardError{status: resp.StatusCode, code: eb.Code, msg: eb.Error}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}
