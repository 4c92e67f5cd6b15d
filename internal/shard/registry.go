package shard

import (
	"fmt"
	"net/url"
	"strings"
)

// The pool's membership is the worker list it was built with
// (DESIGN.md §13): -shard-workers or imdpprun -workers, seeded once by
// NewPool. Liveness is the failure detector's business (lifecycle.go).

// maxRemotes bounds the worker list so a runaway list cannot grow the
// coordinator's probe/planning state without bound.
const maxRemotes = 256

// normalizeWorkerURL validates and canonicalises a worker base URL for
// both ways into the pool: NewPool and ParseWorkerList.
func normalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimSuffix(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("shard: bad worker url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("shard: bad worker url %q (want http(s)://host[:port])", raw)
	}
	return raw, nil
}

// ParseWorkerList splits a comma-separated worker list (imdppd
// -shard-workers, imdpprun -workers), skipping blanks, and refuses a
// malformed entry with the error NewPool would drop it for.
func ParseWorkerList(list string) ([]string, error) {
	var urls []string
	for _, raw := range strings.Split(list, ",") {
		if strings.TrimSpace(raw) == "" {
			continue
		}
		u, err := normalizeWorkerURL(raw)
		if err != nil {
			return nil, err
		}
		urls = append(urls, u)
	}
	return urls, nil
}

// entry inserts a fresh entry for the normalized URL u — out of
// rotation until a probe answers — unless u already has one or the
// list holds maxRemotes: one worker, one entry.
func (p *Pool) entry(u string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.remotes {
		if r.url == u {
			return
		}
	}
	if len(p.remotes) < maxRemotes {
		p.remotes = append(p.remotes, newRemote(u))
	}
}
