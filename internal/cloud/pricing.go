package cloud

import (
	"fmt"
	"time"

	"repro/internal/spark"
	"repro/internal/units"
)

// Pricing holds the Google Cloud unit prices. Disk prices are the
// paper's Table V; the vCPU price is the 2017 n1 rate.
type Pricing struct {
	// StandardPerGBMonth is pd-standard provisioned space ($/GB/month).
	StandardPerGBMonth float64
	// SSDPerGBMonth is pd-ssd provisioned space ($/GB/month).
	SSDPerGBMonth float64
	// VCPUPerHour is the per-vCPU-hour machine price.
	VCPUPerHour float64
	// MemoryGBPerHour is the per-GB-hour price of provisioned executor
	// memory (the custom-machine RAM rate). Specs with HeapGB 0 pay
	// nothing, so pricing stays bit-identical for memory-free searches.
	MemoryGBPerHour float64
	// HoursPerMonth prorates monthly disk prices (GCP bills per second;
	// 730 hours/month average).
	HoursPerMonth float64
}

// DefaultPricing returns the Table V prices.
func DefaultPricing() Pricing {
	return Pricing{
		StandardPerGBMonth: 0.040,
		SSDPerGBMonth:      0.170,
		VCPUPerHour:        0.030,
		MemoryGBPerHour:    0.0045,
		HoursPerMonth:      730,
	}
}

// DiskDollarsPerHour prices one provisioned disk per hour of use.
func (p Pricing) DiskDollarsPerHour(t DiskType, size units.ByteSize) float64 {
	perGB := p.StandardPerGBMonth
	if t == PDSSD {
		perGB = p.SSDPerGBMonth
	}
	return size.GBytes() * perGB / p.HoursPerMonth
}

// ClusterSpec is one point in the paper's configuration space:
// Cost = f(P, DiskTypes, DiskSize_HDFS, DiskSize_Local, Time).
type ClusterSpec struct {
	// Slaves is the worker-node count.
	Slaves int
	// VCPUs is P, the per-node executor core count.
	VCPUs int
	// HDFSType and HDFSSize provision the HDFS disk per node.
	HDFSType DiskType
	HDFSSize units.ByteSize
	// LocalType and LocalSize provision the spark.local.dir disk.
	LocalType DiskType
	LocalSize units.ByteSize
	// HeapGB provisions per-node executor memory and enables the
	// simulator's memory layer and the model's t_mem_limit term. Zero
	// keeps the legacy memory-free behaviour (and price).
	HeapGB float64
}

// Validate checks the spec.
func (s ClusterSpec) Validate() error {
	switch {
	case s.Slaves <= 0:
		return fmt.Errorf("cloud: Slaves must be positive")
	case s.VCPUs <= 0:
		return fmt.Errorf("cloud: VCPUs must be positive")
	case s.HDFSSize <= 0 || s.LocalSize <= 0:
		return fmt.Errorf("cloud: disk sizes must be positive")
	case s.HeapGB < 0:
		return fmt.Errorf("cloud: HeapGB must be >= 0")
	}
	return nil
}

// String renders the spec compactly.
func (s ClusterSpec) String() string {
	base := fmt.Sprintf("%dx%dvCPU hdfs=%s/%v local=%s/%v",
		s.Slaves, s.VCPUs, s.HDFSType, s.HDFSSize, s.LocalType, s.LocalSize)
	if s.HeapGB > 0 {
		return fmt.Sprintf("%s heap=%gGB", base, s.HeapGB)
	}
	return base
}

// ClusterConfig builds the simulator configuration for the spec: the
// paper's testbed software settings on provisioned virtual disks.
func (s ClusterSpec) ClusterConfig() spark.ClusterConfig {
	cfg := spark.DefaultTestbed(s.Slaves, s.VCPUs,
		NewDisk(s.HDFSType, s.HDFSSize), NewDisk(s.LocalType, s.LocalSize))
	cfg.Memory = spark.MemoryConfig{HeapGB: s.HeapGB}
	return cfg
}

// DollarsPerHour is the spec's burn rate.
func (s ClusterSpec) DollarsPerHour(p Pricing) float64 {
	return p.PairPrice(s).DollarsPerHour(s.VCPUs, s.HeapGB)
}

// Cost prices a run of the given duration on the spec.
func (s ClusterSpec) Cost(d time.Duration, p Pricing) float64 {
	return s.DollarsPerHour(p) * d.Hours()
}

// PairPrice prices the specs of one slave count and device pair, which
// differ only in VCPUs and HeapGB: a search prices every shape of a
// pair after resolving both disks' hourly rates once.
type PairPrice struct {
	vcpu, memGB float64 // Pricing.VCPUPerHour, Pricing.MemoryGBPerHour
	hdfs, local float64 // one node's disks, per hour
	slaves      int
}

// PairPrice resolves the prices of base's slave count and device pair.
func (p Pricing) PairPrice(base ClusterSpec) PairPrice {
	return PairPrice{
		vcpu: p.VCPUPerHour, memGB: p.MemoryGBPerHour,
		hdfs:   p.DiskDollarsPerHour(base.HDFSType, base.HDFSSize),
		local:  p.DiskDollarsPerHour(base.LocalType, base.LocalSize),
		slaves: base.Slaves,
	}
}

// DollarsPerHour is the burn rate of the pair's spec with vcpus and
// heapGB per node. It is the one cost expression: every spec is priced
// through it.
func (pp PairPrice) DollarsPerHour(vcpus int, heapGB float64) float64 {
	perNode := float64(vcpus)*pp.vcpu +
		heapGB*pp.memGB +
		pp.hdfs +
		pp.local
	return perNode * float64(pp.slaves)
}

// Cost prices a run of the given duration on the pair's spec with
// vcpus and heapGB per node, as ClusterSpec.Cost does.
func (pp PairPrice) Cost(vcpus int, heapGB float64, d time.Duration) float64 {
	return pp.DollarsPerHour(vcpus, heapGB) * d.Hours()
}

// R1 is the Apache Spark website's hardware-provisioning reference
// (1 disk per 2 CPU cores, 1 TB disks): 8 TB of pd-standard per 16-vCPU
// node, split evenly between HDFS and Spark Local.
func R1(slaves, vcpus int) ClusterSpec {
	total := units.ByteSize(vcpus/2) * units.TB
	return ClusterSpec{
		Slaves: slaves, VCPUs: vcpus,
		HDFSType: PDStandard, HDFSSize: total / 2,
		LocalType: PDStandard, LocalSize: total / 2,
	}
}

// R2 is Cloudera's Hadoop provisioning reference (1 disk per core,
// 1 TB disks): 16 TB of pd-standard per 16-vCPU node.
func R2(slaves, vcpus int) ClusterSpec {
	total := units.ByteSize(vcpus) * units.TB
	return ClusterSpec{
		Slaves: slaves, VCPUs: vcpus,
		HDFSType: PDStandard, HDFSSize: total / 2,
		LocalType: PDStandard, LocalSize: total / 2,
	}
}
