// The signed-request fleet of the license workload: tenants, devices,
// content keys and pre-signed license requests, built from the workload
// seed in set-up so the timed loop measures the service, not the clients.
// Each request also carries what its client needs to check the response.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/secret.hpp"
#include "widevine/drm_service.hpp"
#include "widevine/key_ladder.hpp"

namespace perfbench {

/// The keybox workload's shape: 8 tenants x 512 devices, one request each.
inline constexpr std::size_t kKeyboxTenants = 8;
inline constexpr std::size_t kKeyboxDevicesPerTenant = 512;
/// Content keys each tenant registers; every request asks for all of them.
inline constexpr std::size_t kKeysPerTenant = 2;

struct LicenseFleet {
  std::uint64_t seed = 0;
  std::shared_ptr<wideleak::widevine::DeviceRootDatabase> roots;
  std::shared_ptr<wideleak::widevine::LicenseServer> license;
  std::shared_ptr<wideleak::widevine::ProvisioningServer> provisioning;
  wideleak::widevine::RevocationPolicy policy;
  std::size_t tenants = 0;
  /// Per tenant, the content keys in the order requests list their ids.
  std::vector<std::vector<wideleak::SecretBytes>> content_keys;

  std::vector<wideleak::widevine::LicenseRequest> requests;
  std::vector<wideleak::Bytes> bodies;             // requests[i].body()
  std::vector<wideleak::widevine::AppId> tenant_of;
  /// The client's session keys for request i.
  std::vector<wideleak::widevine::SessionKeys> session_keys;

  std::size_t size() const { return requests.size(); }
};

LicenseFleet build_keybox_fleet(std::uint64_t seed);

/// A DrmService over the fleet's servers with DrmServiceConfig{} defaults
/// and only the seed set; tenants registered as AppId 0..tenants-1.
std::unique_ptr<wideleak::widevine::DrmService> make_service(const LicenseFleet& fleet);

/// Check response `index` the way its client would: the grant, the key ids,
/// the MAC under the client's session key, and every unwrapped content key.
bool verify_response(const LicenseFleet& fleet, std::size_t index,
                     const wideleak::widevine::LicenseResponse& response);

/// Label-derived seed for one input stream of the workload.
std::uint64_t input_seed(std::uint64_t seed, const std::string& label);

}  // namespace perfbench
