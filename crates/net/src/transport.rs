//! The minimal blocking point-to-point transport interface.
//!
//! Every message substrate in this crate — the in-process channel mesh
//! ([`Endpoint`]), the real-socket mesh ([`MuxEndpoint`]) and the
//! fault-injecting adapter ([`crate::chaos::ChaosTransport`]) — presents
//! the same four operations, so the protocol layer above (the
//! `SessionEngine` drive loops in `dauctioneer-core`) is written once
//! against this trait and cannot observe which substrate carries its
//! frames. The trait lives here, next to the transports, so adapters
//! that *wrap* a transport (chaos injection, adversarial strategies)
//! can be generic over it without depending on the protocol layer.

use std::time::Duration;

use bytes::Bytes;
use dauctioneer_types::ProviderId;

use crate::hub::{Endpoint, RecvError};
use crate::tcp::MuxEndpoint;

/// The minimal blocking point-to-point transport the generic drive loops
/// run over. [`Endpoint`] and [`MuxEndpoint`] implement it; a test double
/// or an alternative substrate only needs these four operations.
pub trait Transport {
    /// The provider this transport belongs to.
    fn me(&self) -> ProviderId;

    /// Number of providers in the mesh.
    fn num_providers(&self) -> usize;

    /// Send `payload` to `to`; never blocks.
    fn send(&mut self, to: ProviderId, payload: Bytes);

    /// Wait up to `timeout` for the next message.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived in time,
    /// [`RecvError::Disconnected`] if no message can ever arrive again.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError>;
}

impl Transport for Endpoint {
    fn me(&self) -> ProviderId {
        Endpoint::me(self)
    }

    fn num_providers(&self) -> usize {
        Endpoint::num_providers(self)
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        Endpoint::send(self, to, payload)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        Endpoint::recv_timeout(self, timeout)
    }
}

impl Transport for MuxEndpoint {
    fn me(&self) -> ProviderId {
        MuxEndpoint::me(self)
    }

    fn num_providers(&self) -> usize {
        MuxEndpoint::num_providers(self)
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        MuxEndpoint::send(self, to, payload)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        MuxEndpoint::recv_timeout(self, timeout)
    }
}
