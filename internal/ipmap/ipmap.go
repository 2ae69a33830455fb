// Package ipmap implements the IP address plan of the simulated Internet
// and the mapping services of §3.1/§3.3: every AS owns a well-known prefix,
// so mapping a peer's IP to its ISP is a prefix lookup (the IP2Country /
// IP2Location class of services), and mapping an IP to a location returns
// the "rough geographical area" of that ISP with configurable accuracy.
package ipmap

import (
	"fmt"
	"math/rand"
	"sort"

	"unap2p/internal/geo"
	"unap2p/internal/underlay"
)

// IP is an IPv4 address in host byte order.
type IP = uint32

// FormatIP renders an IP in dotted-quad form.
func FormatIP(ip IP) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Prefix is a CIDR block.
type Prefix struct {
	Base IP
	Bits int // prefix length
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	if p.Bits <= 0 {
		return true
	}
	mask := ^IP(0) << (32 - p.Bits)
	return ip&mask == p.Base&mask
}

// Size returns the number of addresses in the prefix.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Bits) }

func (p Prefix) String() string { return fmt.Sprintf("%s/%d", FormatIP(p.Base), p.Bits) }

// Plan is the address plan: one /16 per AS out of 10.0.0.0/8-style space.
type Plan struct {
	prefixes map[int]Prefix // AS id → prefix
	next     map[int]IP     // AS id → next free host address
}

// NewPlan allocates a /16 for every AS in the network: AS i receives
// 10.(i).0.0/16 (wrapping into 11.x for i > 255, which simulated networks
// never reach in practice).
func NewPlan(net *underlay.Network) *Plan {
	p := &Plan{prefixes: make(map[int]Prefix), next: make(map[int]IP)}
	for _, as := range net.ASes() {
		base := IP(10)<<24 | IP(as.ID)<<16
		p.prefixes[as.ID] = Prefix{Base: base, Bits: 16}
		p.next[as.ID] = base + 1
	}
	return p
}

// PrefixOf returns the prefix owned by an AS.
func (p *Plan) PrefixOf(asID int) (Prefix, bool) {
	pf, ok := p.prefixes[asID]
	return pf, ok
}

// Allocate returns the next free address in an AS's prefix.
func (p *Plan) Allocate(asID int) IP {
	pf, ok := p.prefixes[asID]
	if !ok {
		panic(fmt.Sprintf("ipmap: AS %d has no prefix", asID))
	}
	ip := p.next[asID]
	if !pf.Contains(ip) {
		panic(fmt.Sprintf("ipmap: prefix %v exhausted", pf))
	}
	p.next[asID] = ip + 1
	return ip
}

// AssignAll allocates an address for every host in the network, storing it
// in Host.IP, and returns the plan for later lookups.
func AssignAll(net *underlay.Network) *Plan {
	p := NewPlan(net)
	for _, h := range net.Hosts() {
		h.IP = p.Allocate(h.AS.ID)
	}
	return p
}

// ISPMapper resolves an IP to the AS/ISP that owns it.
type ISPMapper interface {
	// ASOf returns the AS id owning ip, or ok=false when the service has
	// no answer.
	ASOf(ip IP) (asID int, ok bool)
}

// Registry is a mapping service built from the address plan — the
// simulated equivalent of the commercial IP-to-ISP databases. Accuracy
// knobs reproduce the paper's caveat that such services are "less
// accurate" than ISP-provided data.
type Registry struct {
	// MissRate is the probability a lookup returns no answer (stale or
	// missing database entry).
	MissRate float64
	// Rand supplies the error draws; nil means a perfect registry.
	Rand *rand.Rand
	// LocationNoiseKm scatters returned locations around the AS centroid.
	LocationNoiseKm float64

	entries   []registryEntry // sorted by Base for binary search
	centroids map[int]geo.Coord
}

type registryEntry struct {
	prefix Prefix
	asID   int
}

// NewRegistry builds a registry over the plan. Centroids for location
// lookups are derived from the mean position of each AS's hosts.
func NewRegistry(net *underlay.Network, plan *Plan) *Registry {
	r := &Registry{centroids: make(map[int]geo.Coord)}
	for asID, pf := range plan.prefixes {
		r.entries = append(r.entries, registryEntry{prefix: pf, asID: asID})
	}
	sort.Slice(r.entries, func(i, j int) bool {
		return r.entries[i].prefix.Base < r.entries[j].prefix.Base
	})
	counts := make(map[int]int)
	sums := make(map[int]geo.Coord)
	for _, h := range net.Hosts() {
		s := sums[h.AS.ID]
		s.Lat += h.Lat
		s.Lon += h.Lon
		sums[h.AS.ID] = s
		counts[h.AS.ID]++
	}
	for asID, c := range counts {
		r.centroids[asID] = geo.Coord{
			Lat: sums[asID].Lat / float64(c),
			Lon: sums[asID].Lon / float64(c),
		}
	}
	return r
}

// ASOf maps ip to its owning AS by longest(-only) prefix match.
func (r *Registry) ASOf(ip IP) (int, bool) {
	if r.Rand != nil && r.MissRate > 0 && r.Rand.Float64() < r.MissRate {
		return 0, false
	}
	i := sort.Search(len(r.entries), func(i int) bool {
		return r.entries[i].prefix.Base > ip
	}) - 1
	if i < 0 {
		return 0, false
	}
	if r.entries[i].prefix.Contains(ip) {
		return r.entries[i].asID, true
	}
	return 0, false
}

// LocationOf returns the (noisy) centroid of the owning AS — a "rough
// geographical area in which a peer is (most probably) located" (§3.3).
func (r *Registry) LocationOf(ip IP) (geo.Coord, bool) {
	asID, ok := r.ASOf(ip)
	if !ok {
		return geo.Coord{}, false
	}
	c, ok := r.centroids[asID]
	if !ok {
		return geo.Coord{}, false
	}
	if r.Rand != nil && r.LocationNoiseKm > 0 {
		c.Lat += r.Rand.NormFloat64() * r.LocationNoiseKm / 111.32
		c.Lon += r.Rand.NormFloat64() * r.LocationNoiseKm / 111.32
		if c.Lat > 90 {
			c.Lat = 90
		}
		if c.Lat < -90 {
			c.Lat = -90
		}
	}
	return c, true
}

// ISPProvided is the ISP's own authoritative mapper (§3.3: "each ISP knows
// the addresses and exact locations of all of its customers"). It answers
// only for hosts of its own AS and returns exact host locations.
type ISPProvided struct {
	ASID  int
	hosts map[IP]geo.Coord
}

// NewISPProvided indexes the hosts of one AS.
func NewISPProvided(net *underlay.Network, asID int) *ISPProvided {
	m := &ISPProvided{ASID: asID, hosts: make(map[IP]geo.Coord)}
	for _, h := range net.HostsInAS(asID) {
		m.hosts[h.IP] = geo.Coord{Lat: h.Lat, Lon: h.Lon}
	}
	return m
}

// ASOf answers only for the ISP's own customers.
func (m *ISPProvided) ASOf(ip IP) (int, bool) {
	if _, ok := m.hosts[ip]; ok {
		return m.ASID, true
	}
	return 0, false
}

// LocationOf returns the exact customer location the ISP has on file.
func (m *ISPProvided) LocationOf(ip IP) (geo.Coord, bool) {
	c, ok := m.hosts[ip]
	return c, ok
}
