/**
 * @file
 * Configuration of the simulated SUPRENUM machine.
 *
 * Published architectural values (ISCA'92 paper, section 2) are used as
 * defaults; cost constants that the paper does not publish are
 * calibrated so that the paper's measured shapes emerge, and are marked
 * "calibrated" below (see DESIGN.md section 5).
 */

#ifndef SUPRENUM_CONFIG_HH
#define SUPRENUM_CONFIG_HH

#include <cstdint>

#include "sim/types.hh"

namespace supmon
{
namespace suprenum
{

/** Identifies one node inside the whole machine. */
struct NodeId
{
    std::uint16_t cluster = 0;
    /**
     * Slot within the cluster: 0..15 are processing nodes; special
     * nodes (communication, disk, diagnosis) are modelled as cluster
     * members but addressed through dedicated accessors.
     */
    std::uint16_t node = 0;

    friend bool
    operator==(const NodeId &a, const NodeId &b)
    {
        return a.cluster == b.cluster && a.node == b.node;
    }

    friend bool
    operator!=(const NodeId &a, const NodeId &b)
    {
        return !(a == b);
    }
};

/** Identifies one light-weight process in the whole machine. */
struct Pid
{
    NodeId node;
    std::uint32_t lwp = 0;

    friend bool
    operator==(const Pid &a, const Pid &b)
    {
        return a.node == b.node && a.lwp == b.lwp;
    }

    friend bool
    operator!=(const Pid &a, const Pid &b)
    {
        return !(a == b);
    }
};

/** An invalid / "nobody" process id. */
constexpr Pid nobody{NodeId{0xffff, 0xffff}, 0xffffffff};

/**
 * All machine parameters in one aggregate so that experiments can
 * tweak any of them.
 */
struct MachineParams
{
    // ----- topology (published) -------------------------------------
    /** Number of clusters; the full system has 16 in a 4x4 torus. */
    unsigned numClusters = 1;
    /** Torus columns; rows = numClusters / torusColumns. */
    unsigned torusColumns = 4;
    /** Processing nodes per cluster (up to 16). */
    unsigned nodesPerCluster = 16;
    /** Main memory per node: 8 MByte (published). */
    std::uint64_t nodeMemoryBytes = 8ull << 20;

    // ----- interconnect (published rates) ---------------------------
    /** One cluster bus: 160 MByte/s; there are two per cluster. */
    std::uint64_t clusterBusBytesPerSec = 160ull * 1000 * 1000;
    /** Number of parallel cluster buses (published: 2). */
    unsigned clusterBusCount = 2;
    /** SUPRENUM (inter-cluster) bus: 25 MByte/s token ring. */
    std::uint64_t suprenumBusBytesPerSec = 25ull * 1000 * 1000;
    /** Ring duplication factor (published: torus is duplicated). */
    unsigned suprenumRingCount = 2;

    // ----- interconnect cost details (calibrated) --------------------
    /** Bus arbitration overhead per transfer. */
    sim::Tick busArbitration = sim::microseconds(4);
    /** Protocol header added to every transfer. */
    std::uint32_t messageHeaderBytes = 64;
    /** Size of a rendezvous acknowledgement on the wire. */
    std::uint32_t ackBytes = 16;
    /** Token latency per cluster hop on the SUPRENUM bus. */
    sim::Tick tokenHopLatency = sim::microseconds(20);
    /** Store-and-forward latency inside a communication node. */
    sim::Tick commNodeForwardLatency = sim::microseconds(150);
    /** Latency of a purely node-local message delivery. */
    sim::Tick localDeliverLatency = sim::microseconds(30);

    // ----- node kernel (calibrated; paper: ctx switch < 1 ms) -------
    /** Context switch between light-weight processes of one node. */
    sim::Tick contextSwitchCost = sim::microseconds(150);
    /** CPU time to initiate a send (syscall + CU setup). */
    sim::Tick sendSyscallCost = sim::microseconds(400);
    /** Kernel interrupt handling when a message arrives. */
    sim::Tick deliverLatency = sim::microseconds(2500);

    // ----- monitoring interfaces (published, section 3.2) -----------
    /**
     * Total CPU cost of one hybrid_mon() call: "less than one
     * twentieth" of the >2.4 ms terminal path.
     */
    sim::Tick hybridMonCost = sim::microseconds(100);
    /** Serial terminal interface rate: "less than 20 KBit/s". */
    std::uint64_t terminalBitsPerSec = 19200;
    /** Context switch incurred by terminal output (paper, 3.2). */
    sim::Tick terminalContextSwitch = sim::microseconds(500);
    /** Cost of one buffered log-file write (the "rudimentary method"
     *  of section 1; calibrated). */
    sim::Tick logWriteCost = sim::microseconds(800);

    // ----- disk node (calibrated) ------------------------------------
    /** Disk node write bandwidth. */
    std::uint64_t diskBytesPerSec = 1000ull * 1000;
    /** Disk request base latency. */
    sim::Tick diskLatency = sim::microseconds(500);

    // ----- front end (section 2.2) ------------------------------------
    /** Download rate from the front-end computer to the partition
     *  ("the code of the user program is then downloaded..."). */
    std::uint64_t frontEndBytesPerSec = 1000ull * 1000;

    /** Convenience: total machine-wide processing node count. */
    unsigned
    totalProcessingNodes() const
    {
        return numClusters * nodesPerCluster;
    }
};

} // namespace suprenum
} // namespace supmon

#endif // SUPRENUM_CONFIG_HH
