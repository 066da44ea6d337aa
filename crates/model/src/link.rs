//! Communication-link types of the resource library.
//!
//! The link library contains point-to-point links, buses, LANs and serial
//! links. Each type is characterised by the maximum number of ports it can
//! support, an access-time vector indexed by the number of ports actually
//! attached (arbitration gets slower as more PEs share the medium), the
//! packet payload size, and the per-packet transmission time.

use serde::{DeError, Deserialize, Reader, Serialize};

use crate::{Dollars, Nanos};

/// The physical family of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Dedicated point-to-point connection between exactly two PEs.
    PointToPoint,
    /// Shared parallel bus (e.g. a 680X0 or Power QUICC bus).
    Bus,
    /// Local-area network (e.g. 10 Mb/s Ethernet).
    Lan,
    /// Serial link (e.g. the paper's 31 Mb/s serial link).
    Serial,
}

/// One entry of the link library.
///
/// # Examples
///
/// ```
/// use crusade_model::{Dollars, LinkClass, LinkType, Nanos};
///
/// let bus = LinkType::new(
///     "mc680x0-bus",
///     Dollars::new(12),
///     LinkClass::Bus,
///     8,
///     vec![Nanos::from_nanos(200), Nanos::from_nanos(350), Nanos::from_nanos(600)],
///     64,
///     Nanos::from_micros(2),
/// );
/// // 100 bytes = 2 packets; 3 ports attached uses the 3rd access time.
/// let t = bus.transfer_time(100, 3);
/// assert_eq!(t, Nanos::from_nanos(600) + Nanos::from_micros(2) * 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct LinkType {
    name: String,
    cost: Dollars,
    class: LinkClass,
    max_ports: u32,
    /// `access_times[i]` is the medium access time when `i + 1` ports are
    /// attached. The last entry is reused for any higher port count up to
    /// `max_ports`.
    access_times: Vec<Nanos>,
    bytes_per_packet: u32,
    packet_tx_time: Nanos,
}

impl LinkType {
    /// Creates a link type.
    ///
    /// # Panics
    ///
    /// Panics if `access_times` is empty, `bytes_per_packet` is zero, or
    /// `max_ports < 2` (a link connects at least two PEs).
    pub fn new(
        name: impl Into<String>,
        cost: Dollars,
        class: LinkClass,
        max_ports: u32,
        access_times: Vec<Nanos>,
        bytes_per_packet: u32,
        packet_tx_time: Nanos,
    ) -> Self {
        assert!(
            !access_times.is_empty(),
            "access-time vector must be non-empty"
        );
        assert!(bytes_per_packet > 0, "packets must carry at least one byte");
        assert!(max_ports >= 2, "a link must support at least two ports");
        LinkType {
            name: name.into(),
            cost,
            class,
            max_ports,
            access_times,
            bytes_per_packet,
            packet_tx_time,
        }
    }

    /// Human-readable link name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dollar cost of instantiating one link of this type.
    pub fn cost(&self) -> Dollars {
        self.cost
    }

    /// Physical family.
    pub fn class(&self) -> LinkClass {
        self.class
    }

    /// Maximum number of ports (attached PEs) the link supports.
    pub fn max_ports(&self) -> u32 {
        self.max_ports
    }

    /// Payload bytes carried per packet.
    pub fn bytes_per_packet(&self) -> u32 {
        self.bytes_per_packet
    }

    /// Transmission time of a single packet.
    pub fn packet_tx_time(&self) -> Nanos {
        self.packet_tx_time
    }

    /// Medium access time when `ports` PEs are attached.
    ///
    /// Port counts beyond the access-time vector reuse its last entry;
    /// a port count of zero (no allocation yet) uses the first.
    pub fn access_time(&self, ports: u32) -> Nanos {
        let idx = (ports.max(1) as usize - 1).min(self.access_times.len() - 1);
        self.access_times[idx]
    }

    /// Worst-case time to transfer `bytes` over this link with `ports`
    /// attached PEs: one medium access plus the packetised payload.
    ///
    /// This is the quantity the paper's per-edge *communication vector*
    /// stores; it is recomputed whenever an allocation changes the number
    /// of ports on the link.
    pub fn transfer_time(&self, bytes: u64, ports: u32) -> Nanos {
        let packets = bytes.div_ceil(self.bytes_per_packet as u64).max(1);
        self.access_time(ports) + self.packet_tx_time * packets
    }

    /// Transfer time under the worst (fully-populated) medium access —
    /// an upper bound that stays valid however many PEs later attach to
    /// the link. The incremental scheduler budgets edges with this bound
    /// so that already-placed transfers never become optimistic when a
    /// subsequent allocation adds ports.
    pub fn worst_transfer_time(&self, bytes: u64) -> Nanos {
        self.transfer_time(bytes, self.max_ports)
    }
}

/// Deserializes through the checks [`LinkType::new`] asserts, so a library
/// read from a file or a frame cannot hold a link type that would panic
/// later (no access time, empty packets) or be attached to more PEs than
/// it has ports.
impl Deserialize for LinkType {
    fn read<'de, R: Reader<'de>>(r: &mut R) -> Result<Self, DeError> {
        const TY: &str = "LinkType";
        const FIELDS: [&str; 7] = [
            "name",
            "cost",
            "class",
            "max_ports",
            "access_times",
            "bytes_per_packet",
            "packet_tx_time",
        ];
        let (mut name, mut cost, mut class, mut max_ports) = (None, None, None, None);
        let (mut access_times, mut bytes_per_packet, mut packet_tx_time) = (None, None, None);
        let mut pending = r.read_struct(TY, &FIELDS, |r, i| {
            match i {
                0 if name.is_none() => name = Some(String::read(r)?),
                1 if cost.is_none() => cost = Some(Dollars::read(r)?),
                2 if class.is_none() => class = Some(LinkClass::read(r)?),
                3 if max_ports.is_none() => max_ports = Some(u32::read(r)?),
                4 if access_times.is_none() => access_times = Some(Vec::read(r)?),
                5 if bytes_per_packet.is_none() => bytes_per_packet = Some(u32::read(r)?),
                6 if packet_tx_time.is_none() => packet_tx_time = Some(Nanos::read(r)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let link = LinkType {
            name: serde::take_field(name, 0, &mut pending, TY, FIELDS[0])?,
            cost: serde::take_field(cost, 1, &mut pending, TY, FIELDS[1])?,
            class: serde::take_field(class, 2, &mut pending, TY, FIELDS[2])?,
            max_ports: serde::take_field(max_ports, 3, &mut pending, TY, FIELDS[3])?,
            access_times: serde::take_field(access_times, 4, &mut pending, TY, FIELDS[4])?,
            bytes_per_packet: serde::take_field(bytes_per_packet, 5, &mut pending, TY, FIELDS[5])?,
            packet_tx_time: serde::take_field(packet_tx_time, 6, &mut pending, TY, FIELDS[6])?,
        };
        let refuse =
            |field: &str, why: &str| Err(DeError::custom(format!("field `{TY}.{field}`: {why}")));
        if link.access_times.is_empty() {
            return refuse("access_times", "access-time vector must be non-empty");
        }
        if link.bytes_per_packet == 0 {
            return refuse("bytes_per_packet", "packets must carry at least one byte");
        }
        if link.max_ports < 2 {
            return refuse("max_ports", "a link must support at least two ports");
        }
        Ok(link)
    }
}

/// The per-edge communication vector: transfer time of one edge on every
/// link type of the library, computed for a given (average or actual) port
/// count.
///
/// ```
/// use crusade_model::{CommVector, Dollars, LinkClass, LinkType, Nanos};
///
/// let links = vec![LinkType::new(
///     "p2p", Dollars::new(5), LinkClass::PointToPoint, 2,
///     vec![Nanos::from_nanos(50)], 32, Nanos::from_nanos(400),
/// )];
/// let v = CommVector::compute(&links, 64, 2);
/// assert_eq!(v.on(crusade_model::LinkTypeId::new(0)), Nanos::from_nanos(50 + 800));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommVector {
    times: Vec<Nanos>,
}

impl CommVector {
    /// Computes the communication vector for an edge of `bytes` bytes,
    /// assuming `ports` ports on every link.
    pub fn compute(links: &[LinkType], bytes: u64, ports: u32) -> Self {
        CommVector {
            times: links
                .iter()
                .map(|l| l.transfer_time(bytes, ports))
                .collect(),
        }
    }

    /// Transfer time on the given link type.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range for the library this vector was
    /// computed against.
    pub fn on(&self, link: crate::LinkTypeId) -> Nanos {
        self.times[link.index()]
    }

    /// The fastest transfer time across all link types.
    pub fn fastest(&self) -> Option<Nanos> {
        self.times.iter().copied().min()
    }

    /// The slowest transfer time across all link types (used for initial
    /// priority levels).
    pub fn slowest(&self) -> Option<Nanos> {
        self.times.iter().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn deserialization_refuses_what_new_asserts() {
        let valid = lan().serialize_value();
        assert_eq!(LinkType::deserialize_value(&valid), Ok(lan()));
        for (field, bad, named) in [
            (
                "access_times",
                Value::Seq(Vec::new()),
                "LinkType.access_times",
            ),
            (
                "bytes_per_packet",
                Value::U64(0),
                "LinkType.bytes_per_packet",
            ),
            ("max_ports", Value::U64(1), "LinkType.max_ports"),
        ] {
            let Value::Map(mut entries) = valid.clone() else {
                panic!("a link type serializes as a map");
            };
            for (k, v) in &mut entries {
                if k == field {
                    *v = bad.clone();
                }
            }
            let err = LinkType::deserialize_value(&Value::Map(entries)).unwrap_err();
            assert!(err.to_string().contains(named), "{field}: {err}");
        }
    }

    fn lan() -> LinkType {
        LinkType::new(
            "lan-10mbps",
            Dollars::new(45),
            LinkClass::Lan,
            16,
            vec![
                Nanos::from_micros(10),
                Nanos::from_micros(15),
                Nanos::from_micros(25),
            ],
            1500,
            Nanos::from_micros(1200),
        )
    }

    #[test]
    fn access_time_saturates_at_vector_end() {
        let l = lan();
        assert_eq!(l.access_time(1), Nanos::from_micros(10));
        assert_eq!(l.access_time(3), Nanos::from_micros(25));
        assert_eq!(l.access_time(12), Nanos::from_micros(25));
        assert_eq!(l.access_time(0), Nanos::from_micros(10));
    }

    #[test]
    fn transfer_time_packetises() {
        let l = lan();
        // 1 byte still needs one packet.
        assert_eq!(
            l.transfer_time(1, 2),
            Nanos::from_micros(15) + Nanos::from_micros(1200)
        );
        // 3000 bytes = 2 packets exactly.
        assert_eq!(
            l.transfer_time(3000, 2),
            Nanos::from_micros(15) + Nanos::from_micros(2400)
        );
        // 3001 bytes = 3 packets.
        assert_eq!(
            l.transfer_time(3001, 2),
            Nanos::from_micros(15) + Nanos::from_micros(3600)
        );
    }

    #[test]
    fn zero_byte_edge_costs_one_packet() {
        // Control edges with no payload still pay synchronisation cost.
        let l = lan();
        assert_eq!(
            l.transfer_time(0, 1),
            Nanos::from_micros(10) + Nanos::from_micros(1200)
        );
    }

    #[test]
    #[should_panic(expected = "access-time")]
    fn empty_access_vector_rejected() {
        let _ = LinkType::new(
            "bad",
            Dollars::ZERO,
            LinkClass::Bus,
            4,
            vec![],
            64,
            Nanos::from_nanos(1),
        );
    }

    #[test]
    fn comm_vector_min_max() {
        let links = vec![
            lan(),
            LinkType::new(
                "serial-31mbps",
                Dollars::new(20),
                LinkClass::Serial,
                2,
                vec![Nanos::from_micros(2)],
                256,
                Nanos::from_micros(66),
            ),
        ];
        let v = CommVector::compute(&links, 512, 2);
        assert_eq!(v.fastest().unwrap(), v.on(crate::LinkTypeId::new(1)));
        assert_eq!(v.slowest().unwrap(), v.on(crate::LinkTypeId::new(0)));
    }
}
